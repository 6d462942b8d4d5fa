#!/usr/bin/env python3
"""Smoke test for examples/sql_shell: pipes a short script into the shell
over a tiny TPC-H catalog and checks its replies.

Covers the backend switch, a plain statement, that `\\sessions` compiles with
the shell's current options (`\\fusion off` included), that an unknown
backslash command is named as such instead of reaching the SQL parser, and
that the removed `parallel` backend is refused.

Run through ctest (the `sql_shell_smoke` test) or directly:
`python3 tests/test_sql_shell.py <path to sql_shell>`.
"""

import subprocess
import sys
import unittest

SHELL = None  # set from argv in __main__

SQL = "SELECT COUNT(*) AS n FROM region"

SCRIPT = "\n".join([
    "\\backend pipelined",
    SQL,
    "\\fusion off",
    "\\sessions 2 " + SQL,
    "\\nosuch",
    "\\backend parallel",
    "quit",
]) + "\n"


class SqlShellSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        proc = subprocess.run(
            [SHELL, "0.001"], input=SCRIPT, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=120)
        cls.returncode = proc.returncode
        cls.output = proc.stdout

    def assertReplied(self, text):
        self.assertIn(text, self.output, "shell output:\n" + self.output)

    def test_exits_cleanly(self):
        self.assertEqual(self.returncode, 0, self.output)

    def test_statement_runs_on_pipelined(self):
        self.assertReplied("tqp[tqp/pipelined/cpu]>")
        self.assertReplied("(1 rows)")
        self.assertNotIn("error", self.output.lower())

    def test_sessions_use_current_options(self):
        self.assertReplied("expression fusion off")
        self.assertReplied("2 sessions on pipelined, fusion off")
        self.assertReplied("session 0: 1 rows")
        self.assertReplied("session 1: 1 rows")

    def test_unknown_command_is_named(self):
        self.assertReplied("unknown command '\\nosuch'")
        self.assertNotIn("Parse error", self.output)

    def test_parallel_backend_is_gone(self):
        self.assertReplied("unknown backend 'parallel'")
        # The refused switch leaves the previous backend selected.
        last_prompt = self.output.rsplit("tqp[", 1)[-1]
        self.assertTrue(last_prompt.startswith("tqp/pipelined/cpu]>"),
                        self.output)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_sql_shell.py <path to sql_shell>")
    SHELL = sys.argv.pop(1)
    unittest.main()
