"""Setuptools entry point and package metadata.

There is no pyproject.toml: this file carries the metadata, so the
package installs editable (``pip install -e .``) through the legacy
``setup.py develop`` path, which needs no ``wheel`` package and so also
works offline.  ``package_data`` ships ``repro/cluster/timing_core.c``,
the source the vectorized engine compiles on first use, with a regular
(non-editable) install.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of NTX, a streaming floating-point accelerator for "
        "generalized reduction workloads"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.cluster": ["*.c"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
)
