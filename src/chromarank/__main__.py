"""`python -m chromarank ARGS` runs the command line, as `chromarank ARGS` does."""

from .cli import main

main()
