"""``python -m okbodies``: the ``okbodies`` command line."""

from .cli import main

raise SystemExit(main())
