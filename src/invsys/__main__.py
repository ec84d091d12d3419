"""Allow ``python -m invsys`` as an alias for the console script.

``main()`` does not return: it ends the process with the command's exit code.
"""

from .cli import main

if __name__ == "__main__":
    main()
