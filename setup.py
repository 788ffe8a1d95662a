"""Packaging for the ``repro`` library and its ``repro`` command.

The package lives under ``src/``.  The setuptools-only configuration also
allows an editable install on machines without network access (no ``wheel``
package available for PEP 660 editable builds):

    pip install -e . --no-use-pep517 --no-build-isolation
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Differentially private histograms and heavy hitters "
                "from the Misra-Gries sketch",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
