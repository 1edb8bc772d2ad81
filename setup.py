"""Package metadata for ``repro``.

``python setup.py --name --version`` prints it and ``pip install -e
.`` installs from it. The version has one source, ``__version__`` in
``src/repro/__init__.py``, read here without importing the package.
"""

import ast
from pathlib import Path

from setuptools import find_packages, setup

SRC = Path(__file__).resolve().parent / "src"


def read_version() -> str:
    """The ``__version__`` string assigned in ``repro/__init__.py``."""
    tree = ast.parse((SRC / "repro" / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__version__"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise RuntimeError("src/repro/__init__.py assigns no __version__")


setup(
    name="repro",
    version=read_version(),
    description=("Reproduction of intra-rack resource disaggregation "
                 "with co-packaged DWDM photonics"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    # Only the graph views in repro.network.topology need networkx.
    extras_require={"graph": ["networkx"]},
)
