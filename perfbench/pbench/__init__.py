"""The end-to-end benchmark's modules (see ``perfbench/README.md``)."""
