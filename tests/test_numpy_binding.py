"""numpy has one binding in the package, `graph.np`, which loads numpy at
its first attribute read.

The other modules take it with `from .graph import np`.  No package
code reads it while a module is being imported: not at module level,
in a default argument, a decorator, a class body or an evaluated
annotation.  One such read would load numpy for every command again,
the index-set and lattice commands included, which need none of it.
"""

import ast
import glob
import os
import sys
import unittest

import numpy as np

from hhsforge import model
from hhsforge.graph import _lazy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def executed(node):
    """The nodes under node that run when its module is imported: all
    but the bodies of functions and lambdas, whose decorators, defaults
    and annotations do run.  No package module postpones annotations,
    so every annotation counts as run."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        parts = (node.decorator_list + args.defaults + args.kw_defaults
                 + [a.annotation for a in args.posonlyargs + args.args
                    + args.kwonlyargs + [args.vararg, args.kwarg] if a]
                 + [node.returns])
    elif isinstance(node, ast.Lambda):
        parts = node.args.defaults + node.args.kw_defaults
    else:
        yield node
        parts = ast.iter_child_nodes(node)
    for part in parts:
        if part is not None:
            yield from executed(part)


class NumpyBindingGuard(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.package = {}
        for path in sorted(glob.glob(
                os.path.join(ROOT, "src", "hhsforge", "*.py"))):
            with open(path, encoding="utf-8") as handle:
                cls.package[os.path.basename(path)] = ast.parse(
                    handle.read(), path)

    def test_graph_holds_the_only_binding(self):
        imports, bindings = [], []
        for name, tree in self.package.items():
            for n in ast.walk(tree):
                if isinstance(n, ast.Import):
                    modules = [a.name for a in n.names]
                elif isinstance(n, ast.ImportFrom) and not n.level:
                    modules = [n.module]
                else:
                    modules = []
                if any(m == "numpy" or m.startswith("numpy.")
                       for m in modules):
                    imports.append("%s:%d" % (name, n.lineno))
                if (isinstance(n, ast.ImportFrom) and n.level
                        and any(a.name == "np" for a in n.names)):
                    bindings.append((name, n.module))
        self.assertEqual(imports, [])
        self.assertEqual(bindings, [(name, "graph") for name in (
            "chhs.py", "cli.py", "cubes.py", "model.py")])
        self.assertIn("np = _lazy('numpy')",
                      [ast.unparse(n) for n in self.package["graph.py"].body])

    def test_no_numpy_read_at_import_time(self):
        reads = []
        for name, tree in self.package.items():
            for n in executed(tree):
                if (isinstance(n, ast.Name) and n.id == "np"
                        and isinstance(n.ctx, ast.Load)):
                    reads.append("%s:%d" % (name, n.lineno))
        self.assertEqual(reads, [])

    def test_guard_sees_each_import_time_place(self):
        tree = ast.parse(
            "a = np.x\n"
            "def f(b=np.x, *, c=np.x) -> np.x:\n    d = np.x\n"
            "@np.x\ndef g(e: np.x): pass\n"
            "class C:\n    h = np.x\n    def m(self):\n        i = np.x\n"
            "k = lambda j=np.x: np.x\n"
            "l: np.x = 1\n")
        lines = sorted(n.lineno for n in executed(tree)
                       if isinstance(n, ast.Name) and n.id == "np")
        self.assertEqual(lines, [1, 2, 2, 2, 4, 5, 7, 10, 11])

    def test_far_is_the_int32_maximum(self):
        self.assertEqual(model._FAR, np.iinfo(np.int32).max)


class LazyImport(unittest.TestCase):

    def test_missing_module_fails_like_import(self):
        name = "hhsforge_no_such_module"
        with self.assertRaises(ModuleNotFoundError) as caught:
            _lazy(name)
        self.assertEqual(caught.exception.name, name)
        self.assertEqual(str(caught.exception),
                         "No module named 'hhsforge_no_such_module'")
        self.assertNotIn(name, sys.modules)

    def test_imported_module_is_returned_as_it_is(self):
        self.assertIs(_lazy("numpy"), sys.modules["numpy"])
        self.assertIs(_lazy("os"), os)


if __name__ == "__main__":
    unittest.main()
