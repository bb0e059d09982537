"""End-to-end benchmark of the MicroNN reproduction (see README.md)."""
