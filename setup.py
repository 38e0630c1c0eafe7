"""Legacy setup shim: lets `pip install -e .` work offline without `wheel`.

All metadata lives in pyproject.toml; duplicated minimally here because the
legacy code path reads setup() arguments directly.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Multi-resource list scheduling of moldable parallel jobs under "
        "precedence constraints (ICPP 2021 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
