"""``python -m mtcl``: the same command line as the ``mtcl`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
