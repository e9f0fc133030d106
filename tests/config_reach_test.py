#!/usr/bin/env python3
"""Runtime reach of config fields: which fields only tests write.

    python3 tests/config_reach_test.py

The linker audit cannot see a library path that a shipped binary links
but never turns on: a `*Config` field that only tests set keeps its code
linked through the one `if (cfg.field)` that reads it. This lists every
top-level field of a `struct *Config` in `src/*/*.h` (a nested config
member counts once) that no file under `src/`, `bench/`, `examples/` or
`bench_e2e/` writes. A write is an assignment, compound assignment or
`push_back`/`emplace_back`/`add*`/`resize`/`assign` call through
`.field` or `->field`. The match is by field name alone, so a name two
structs share can hide a candidate: read the fields of such names by
hand.

The test fails when the settable-field count or the list of fields with
no shipped writer moves, and prints the difference. A new candidate is wired in, deleted with the
code behind it and the tests that test only it, or added to NO_WRITER
below with its reason (and to the ROADMAP's config-schema item).
"""
import glob
import os
import re
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = ("src", "bench", "examples", "bench_e2e")

SETTABLE_FIELDS = 88
NO_WRITER = [
    # Chaos.KitchenSinkDigestsArePinned depends on both values.
    "PerturbationConfig::rpc_timeout_ns",
    "PerturbationConfig::discovery_lag_ns",
    # access_trace_test shortens the mixed trace.
    "MixedTraceConfig::accesses",
]


def strip_comments(text):
    return re.sub(r"//[^\n]*|/\*.*?\*/", "", text, flags=re.S)


def members(body):
    """Names of the top-level data members in a struct body."""
    depth, flat = 0, ""
    for ch in body:
        depth += (ch == "{") - (ch == "}")
        if depth == 0 and ch not in "{}":
            flat += ch
    for stmt in flat.split(";"):
        m = re.search(r"(\w+)\s*(=[^;]*)?$", stmt.strip())
        if m and "(" not in stmt.split("=")[0] and not re.match(
                r"\s*(static|using|friend|enum|template|struct|class)\b",
                stmt):
            yield m.group(1)


def config_fields(root=ROOT):
    """(struct, field) for every top-level field of a struct *Config."""
    fields = []
    for header in sorted(glob.glob(os.path.join(root, "src/*/*.h"))):
        with open(header) as f:
            s = strip_comments(f.read())
        for m in re.finditer(r"\bstruct\s+(\w+Config)\s*\{", s):
            depth, j = 1, m.end()
            while depth:
                depth += (s[j] == "{") - (s[j] == "}")
                j += 1
            fields += [(m.group(1), name)
                       for name in members(s[m.end():j - 1])]
    return fields


def shipped_source(root=ROOT):
    text = []
    for d in SHIPPED:
        for path in sorted(glob.glob(os.path.join(root, d, "**/*.c*"),
                                     recursive=True)):
            with open(path) as f:
                text.append(strip_comments(f.read()))
    return "".join(text)


def no_shipped_writer(fields, source):
    """The fields no shipped source writes, in declaration order."""
    out = []
    for struct, field in fields:
        write = (r"(\.|->)%s\b(\.\w+|\[[^]]*\])*\s*([-+*/|&]?=(?!=)|"
                 r"\.(push_back|emplace_back|add\w*|resize|assign)\()" % field)
        if not re.search(write, source):
            out.append("%s::%s" % (struct, field))
    return out


class ConfigReachTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.fields = config_fields()
        cls.no_writer = no_shipped_writer(cls.fields, shipped_source())

    def test_settable_field_count(self):
        self.assertEqual(len(self.fields), SETTABLE_FIELDS)

    def test_fields_only_tests_write(self):
        self.assertEqual(self.no_writer, NO_WRITER)


if __name__ == "__main__":
    unittest.main()
