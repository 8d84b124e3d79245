"""`python -m loopsynth`: the same command line as the `loopsynth` script."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="loopsynth")
