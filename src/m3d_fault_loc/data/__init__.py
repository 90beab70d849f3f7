"""Dataset generation and contract-gated loading."""
