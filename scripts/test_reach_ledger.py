"""Tests for the reach ledger's allowlist diff.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import io
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reach_ledger  # noqa: E402


def diff(found, allowed):
    with contextlib.redirect_stdout(io.StringIO()):
        return reach_ledger.diff("list", found, allowed)


class DiffTest(unittest.TestCase):
    def test_every_entry_allowlisted_passes(self):
        self.assertEqual(diff(["a", "b"], {"a": "why", "b": "why"}), [])

    def test_unlisted_entry_fails(self):
        self.assertEqual(diff(["a", "b"], {"a": "why"}), ["b"])

    def test_stale_entry_fails(self):
        self.assertEqual(diff(["a"], {"a": "why", "gone": "why"}), ["gone"])


if __name__ == "__main__":
    unittest.main()
