"""A ``ppm serve`` process and a minimal HTTP/1.1 keep-alive client.

The client is the benchmark's own: it writes a request, reads the status
line, headers and ``Content-Length`` body, and times the round trip at
the socket.  Nothing from ``repro.serve`` is used on the client side.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import selectors
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from pbench import common

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)\r?\n")

#: Seconds allowed for a server to come up with its series loaded.
STARTUP_TIMEOUT_S = 120.0


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    setup_s: float
    rss_file: Path


def start(series: Path, scratch: Path) -> Server:
    """Spawn ``ppm serve --port 0 --series w=FILE``; wait until it listens.

    ``setup_s`` is spawn to the "listening" line, which the server prints
    once every ``--series`` file is loaded and the port is bound.
    """
    rss_file = scratch / f"serve-rss-{time.monotonic_ns()}.txt"
    started = time.perf_counter()
    proc = subprocess.Popen(
        common.program_argv(
            "serve", "--port", "0", "--series", f"w={series}"
        ),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        bufsize=0,
        env=common.program_env(rss_file),
        cwd=scratch,
    )
    assert proc.stdout is not None
    deadline = started + STARTUP_TIMEOUT_S
    seen = b""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not selector.select(remaining):
                common.stop_process(proc, timeout=0)
                raise RuntimeError("ppm serve did not start listening")
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                common.stop_process(proc, timeout=0)
                raise RuntimeError(
                    f"ppm serve exited with {proc.returncode} before "
                    "listening"
                )
            seen += chunk
            found = _LISTENING.search(seen.decode("utf-8", "replace"))
            if found:
                setup_s = time.perf_counter() - started
                return Server(
                    proc, found.group(1), int(found.group(2)), setup_s,
                    rss_file,
                )


def stop(server: Server) -> int | None:
    """``POST /shutdown``, wait for exit; returns the peak RSS in kB."""
    try:
        asyncio.run(_one(server, "POST", "/shutdown", b""))
    except OSError:
        pass
    common.stop_process(server.proc)
    return common.read_rss(server.rss_file)


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------


class Connection:
    """One keep-alive connection."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, host: str, tenant: str):
        self.reader = reader
        self.writer = writer
        self.head = f"Host: {host}\r\nX-Tenant: {tenant}\r\n"

    @classmethod
    async def open(cls, server: Server, tenant: str) -> "Connection":
        reader, writer = await asyncio.open_connection(server.host, server.port)
        return cls(reader, writer, server.host, tenant)

    def encode(self, method: str, path: str, body: bytes) -> bytes:
        return (
            f"{method} {path} HTTP/1.1\r\n{self.head}"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body

    async def send(self, raw: bytes) -> tuple[int, bytes]:
        """Write one encoded request; read its response."""
        self.writer.write(raw)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _one(server: Server, method: str, path: str, body: bytes):
    conn = await Connection.open(server, "perfbench")
    try:
        return await conn.send(conn.encode(method, path, body))
    finally:
        await conn.close()


def request(server: Server, method: str, path: str, payload=None):
    """One request on its own connection: ``(status, parsed JSON)``."""
    body = b"" if payload is None else json.dumps(payload).encode()
    status, raw = asyncio.run(_one(server, method, path, body))
    return status, json.loads(raw) if raw else None
