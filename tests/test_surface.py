"""Every public function and constant of the package has a reader in
code that is itself reached.

Code is reached when it is in the benchmark harness (perfbench/*.py),
in the acceptance gate (tests/test_acceptance.py), at the top level of a
package module outside every function and class, or in the body of a
package function or class that reached code reads.  Code reads a
definition through its bare name, or through `<module>.<name>` where
<module> names a package module that an import binds.  An attribute of
anything else (`c.saturation`), a name in an import list and a name read
only inside unreached code do not count.  The bodies of the round-trip
writers count as reached.

A public top-level function or constant that no reached code reads is
surface no subcommand reaches: delete it, or move it into the tests as
the reference for the code that replaced it.
"""

import ast
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


def package_modules(tree):
    """The names that `from hhsforge import m` or `from . import m`
    binds to a package module in a file."""
    out = set()
    for n in ast.walk(tree):
        if (isinstance(n, ast.ImportFrom)
                and (n.module == "hhsforge" or (n.level and not n.module))):
            out.update(alias.asname or alias.name for alias in n.names)
    return out


def reads(nodes, modules):
    """The names the code under nodes reads: loaded bare names, and
    attributes of the names in modules."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif (isinstance(n, ast.Attribute)
                  and isinstance(n.value, ast.Name)
                  and n.value.id in modules):
                out.add(n.attr)
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
        # name -> the read sets of the top-level definitions so named
        bodies = {}
        read = set(ROUND_TRIP_WRITERS)
        for tree in cls.package.values():
            modules = package_modules(tree)
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    bodies.setdefault(node.name, []).append(
                        reads([node], modules))
                else:
                    read |= reads([node], modules)
        for path in (sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
                     + [os.path.join(ROOT, "tests", "test_acceptance.py")]):
            tree = parse(path)
            read |= reads([tree], package_modules(tree))
        # a definition is reached once reached code reads it
        reached = set()
        while read & bodies.keys() - reached:
            for name in read & bodies.keys() - reached:
                reached.add(name)
                for body in bodies[name]:
                    read |= body
        cls.read = read

    def unread(self, kinds):
        """(public names defined by top-level statements of the given
        kinds, those of them that no reached code reads)."""
        public = []
        unread = []
        for path, tree in self.package.items():
            for node in tree.body:
                if not isinstance(node, kinds):
                    continue
                for name in public_names(node):
                    public.append(name)
                    if name not in self.read:
                        unread.append("%s:%d %s" % (os.path.basename(path),
                                                    node.lineno, name))
        return public, unread

    def test_every_public_function_is_reached(self):
        public, unread = self.unread(ast.FunctionDef)
        self.assertEqual(unread, [])
        for name in ROUND_TRIP_WRITERS:
            self.assertIn(name, public)

    def test_every_public_constant_is_read(self):
        public, unread = self.unread((ast.Assign, ast.AnnAssign))
        self.assertIn("APEX", public)
        self.assertEqual(unread, [])


if __name__ == "__main__":
    unittest.main()
