"""Build script: compiles the kernel extension from the tracked C source.

``_ckernels.c`` is generated from ``_ckernels.pyx`` with ``cython -3`` and
committed, so a build needs a C compiler but not Cython; regenerate the
``.c`` whenever the ``.pyx`` changes.  The extension is optional: where it
does not compile, the package runs on its pure-Python kernels.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "cechstrat._kernels._ckernels",
            ["src/cechstrat/_kernels/_ckernels.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
