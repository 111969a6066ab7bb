"""`python -m trafcal`: the same command line as the `trafcal` script."""

from trafcal.cli import entry

if __name__ == "__main__":
    entry()
