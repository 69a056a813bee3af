"""End-to-end ``P2PSystem.run_slot`` benchmark (see README.md)."""
