"""Keep the ledger's schema test out of the repo-wide (tier-1) collection.

``python -m pytest`` from the repo root would otherwise pick it up; it
still runs when named: ``pytest benchmarks/ledger/test_ledger_schema.py``.
"""

collect_ignore = ["test_ledger_schema.py"]
