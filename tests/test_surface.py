"""Every public function of the package has a caller outside the tests.

A public top-level function in src/hhsforge must be named, as a name or
as an attribute, somewhere in the package outside its own body, in the
benchmark harness (perfbench/*.py) or in the acceptance gate
(tests/test_acceptance.py).  A function that only other tests call is
surface no subcommand reaches: delete it, or move it into the tests as
the reference for the code that replaced it.
"""

import ast
import collections
import glob
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The writers of the model, complex and automorphism formats.  They are
# kept for the round trip load(dump(x)) of each format, which no
# subcommand runs.
ROUND_TRIP_WRITERS = ("dump_automorphism", "dump_complex", "dump_model")


def parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def named(node):
    """How often each name or attribute is named under node."""
    out = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


class SurfaceGuard(unittest.TestCase):

    def test_every_public_function_is_reached(self):
        package = dict((path, parse(path)) for path in sorted(
            glob.glob(os.path.join(ROOT, "src", "hhsforge", "*.py"))))
        inside = collections.Counter()
        for tree in package.values():
            inside += named(tree)
        outside = collections.Counter()
        for path in (sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
                     + [os.path.join(ROOT, "tests", "test_acceptance.py")]):
            outside += named(parse(path))
        public = []
        unreached = []
        for path, tree in package.items():
            for fn in tree.body:
                if (not isinstance(fn, ast.FunctionDef)
                        or fn.name.startswith("_")):
                    continue
                public.append(fn.name)
                if (inside[fn.name] > named(fn)[fn.name]
                        or outside[fn.name]
                        or fn.name in ROUND_TRIP_WRITERS):
                    continue
                unreached.append("%s:%d %s" % (os.path.basename(path),
                                               fn.lineno, fn.name))
        self.assertEqual(unreached, [])
        for name in ROUND_TRIP_WRITERS:
            self.assertIn(name, public)


if __name__ == "__main__":
    unittest.main()
