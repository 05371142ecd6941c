"""The repository's benchmark of Algorithm 1 (see README.md)."""
