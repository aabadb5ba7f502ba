from setuptools import Extension, setup

# The compiled wedge kernel is optional: without a C compiler the build
# skips it and cliffsys.kernel uses the pure-Python twin, _wedge_py.
setup(
    ext_modules=[
        Extension(
            "cliffsys._wedge_c",
            ["src/cliffsys/_wedge_c.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
