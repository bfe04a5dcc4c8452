"""What every CLI invocation pays before its first march.

    python3 probe_setup.py MODE CONFIG [MODE CONFIG ...]

Imports ``semigeo.cli`` and runs ``load_config`` and
``validate_for_mode`` on each config, then prints the path of the
imported package so the caller can check it ran the checkout's sources.
"""

import sys

import semigeo
from semigeo.cli import load_config, validate_for_mode


def main(argv):
    for mode, path in zip(argv[::2], argv[1::2]):
        validate_for_mode(load_config(path), mode)
    print(semigeo.__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
