"""``python -m confrac ...`` runs the command-line tool."""

from .cli import main

if __name__ == "__main__":
    main()
