"""`python -m inca`: the same entry point as the `inca` command."""

from .cli import main

if __name__ == "__main__":
    main()
