from setuptools import Extension, setup

# The shipped _kernels_c.c is Cython's output for _kernels_c.pyx, so the
# build needs only a C compiler; without one the install keeps the pure kernels.
setup(ext_modules=[Extension("chromarank._kernels_c", ["src/chromarank/_kernels_c.c"], optional=True)])
