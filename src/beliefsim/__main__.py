"""``python -m beliefsim``: the same command line as the ``beliefsim`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
