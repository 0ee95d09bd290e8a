"""Every public function and constant of the package has a reader
outside the tests.

A public top-level function or constant in src/hhsforge must be named,
as a name or as an attribute, somewhere in the package outside its own
definition, in the benchmark harness (perfbench/*.py) or in the
acceptance gate (tests/test_acceptance.py).  A function or constant that
only other tests read is surface no subcommand reaches: delete it, or
move it into the tests as the reference for the code that replaced it.
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


def public_names(node):
    """The public names a top-level statement defines: a function's
    name, or the plain names an assignment binds."""
    if isinstance(node, ast.FunctionDef):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


class SurfaceGuard(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.package = dict((path, parse(path)) for path in sorted(
            glob.glob(os.path.join(ROOT, "src", "hhsforge", "*.py"))))
        cls.inside = collections.Counter()
        for tree in cls.package.values():
            cls.inside += named(tree)
        cls.outside = collections.Counter()
        for path in (sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
                     + [os.path.join(ROOT, "tests", "test_acceptance.py")]):
            cls.outside += named(parse(path))

    def unreached(self, kinds):
        """(public names defined by top-level statements of the given
        kinds, those of them that nothing outside the tests reads)."""
        public = []
        unreached = []
        for path, tree in self.package.items():
            for node in tree.body:
                if not isinstance(node, kinds):
                    continue
                for name in public_names(node):
                    public.append(name)
                    if (self.inside[name] > named(node)[name]
                            or self.outside[name]
                            or name in ROUND_TRIP_WRITERS):
                        continue
                    unreached.append("%s:%d %s" % (os.path.basename(path),
                                                   node.lineno, name))
        return public, unreached

    def test_every_public_function_is_reached(self):
        public, unreached = self.unreached(ast.FunctionDef)
        self.assertEqual(unreached, [])
        for name in ROUND_TRIP_WRITERS:
            self.assertIn(name, public)

    def test_every_public_constant_is_read(self):
        public, unreached = self.unreached((ast.Assign, ast.AnnAssign))
        self.assertIn("APEX", public)
        self.assertEqual(unreached, [])


if __name__ == "__main__":
    unittest.main()
