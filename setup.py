from setuptools import Extension, setup

# _kernels_c.c is written by hand against the CPython C API, so the build
# needs only a C compiler; without one the install keeps the pure kernels.
setup(ext_modules=[Extension("chromarank._kernels_c", ["src/chromarank/_kernels_c.c"], optional=True)])
