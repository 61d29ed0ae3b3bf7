"""Build script for the compiled evaluation kernel.

The package works without the extension (a vectorized numpy fallback is
selected at import time), so a missing compiler only costs speed: the
extension is optional and a failed compile leaves the pure install.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            name="blochkit._kernels._ckernel",
            sources=["src/blochkit/_kernels/_ckernel.c"],
            # no fused multiply-add, so each product rounds as numpy's does
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
