/* Compiled kernels; same contract as chromarank._kernels_py.
 *
 * Permutations cross the boundary as sequences of ints and come back as
 * tuples; arguments are taken by position only.  Every permutation argument
 * is read against the degree of the call, the length of its first
 * permutation: one of another length, or an image outside 0..degree-1,
 * raises ValueError before any image is used as an index.  Images that
 * repeat give unspecified results, but every buffer starts zeroed, so they
 * still index nothing out of bounds.
 *
 * close_group and the orbit kernels share one breadth-first search: a state
 * is a tuple of points, a permutation in close_group and conjugacy_orbit and
 * any tuple of points in tuple_orbit, where the generators act on every
 * entry.  The search keeps each state packed into a bytes object as
 * big-endian u32 images, so bytes comparison and hashing match tuple order
 * while the inner loops run on raw C arrays.
 *
 * Written against the CPython C API of 3.10; setup.py builds it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>

typedef uint32_t u32;

/* -- reading ints ----------------------------------------------------------- */

/* CPython shares one int object for each of 0..256 instead of allocating
 * anew.  small_int holds them by value, so writing such an image costs no
 * call; small_key and small_value hold them in an open-addressing table
 * keyed by address, so reading one costs a probe instead of a call to
 * PyLong_AsLongAndOverflow.  The module keeps a reference to each, so a
 * key's address can belong to no other object. */
#define SMALL 257
#define SMALL_SLOTS 1024
static PyObject *small_int[SMALL];
static PyObject *small_key[SMALL_SLOTS];
static u32 small_value[SMALL_SLOTS];

/* The slot of o in the table, or the empty slot where its probe ends. */
static size_t small_slot(PyObject *o)
{
    size_t j = ((uintptr_t)o >> 4) & (SMALL_SLOTS - 1);
    while (small_key[j] != NULL && small_key[j] != o)
        j = (j + 1) & (SMALL_SLOTS - 1);
    return j;
}

/* -- buffers ------------------------------------------------------------- */

static void pack(const u32 *src, Py_ssize_t n, unsigned char *dst)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        u32 v = src[i];
        dst[4 * i] = (unsigned char)(v >> 24);
        dst[4 * i + 1] = (unsigned char)(v >> 16);
        dst[4 * i + 2] = (unsigned char)(v >> 8);
        dst[4 * i + 3] = (unsigned char)v;
    }
}

static void unpack(const unsigned char *src, Py_ssize_t n, u32 *dst)
{
    for (Py_ssize_t i = 0; i < n; i++)
        dst[i] = (u32)src[4 * i] << 24 | (u32)src[4 * i + 1] << 16
                 | (u32)src[4 * i + 2] << 8 | (u32)src[4 * i + 3];
}

/* A new bytes object holding the n images of src, packed. */
static PyObject *packed(const u32 *src, Py_ssize_t n)
{
    PyObject *out = PyBytes_FromStringAndSize(NULL, 4 * n);
    if (out != NULL)
        pack(src, n, (unsigned char *)PyBytes_AS_STRING(out));
    return out;
}

static PyObject *to_tuple(const u32 *src, Py_ssize_t n)
{
    PyObject *out = PyTuple_New(n);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v;
        if (src[i] < SMALL) {
            v = small_int[src[i]];
            Py_INCREF(v);
        } else if ((v = PyLong_FromSsize_t((Py_ssize_t)src[i])) == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, v);
    }
    return out;
}

/* Read the n points of seq, each in 0..d-1, into dst: a permutation of
 * degree d when n is d.  Any other sequence than a tuple is copied to a
 * tuple first, so that code run by an image's __index__ cannot pull the
 * items away; a tuple, the common case, is read in place without that call,
 * which the filters would feel. */
static int fill(PyObject *seq, u32 *dst, Py_ssize_t n, Py_ssize_t d)
{
    PyObject *tuple = seq;
    if (PyTuple_CheckExact(seq))
        Py_INCREF(seq);
    else if ((tuple = PySequence_Tuple(seq)) == NULL)
        return -1;
    PyObject **items = PySequence_Fast_ITEMS(tuple);
    int status = 0;
    if (PyTuple_GET_SIZE(tuple) != n) {
        PyErr_Format(PyExc_ValueError, "permutation of length %zd in a call of degree %zd",
                     PyTuple_GET_SIZE(tuple), d);
        status = -1;
    }
    for (Py_ssize_t i = 0; status == 0 && i < n; i++) {
        int overflow;
        size_t j = small_slot(items[i]);
        long v = small_key[j] == items[i] ? (long)small_value[j]
                                          : PyLong_AsLongAndOverflow(items[i], &overflow);
        /* an error, an overflow or a negative image all give v < 0 */
        if ((unsigned long)v < (unsigned long)d) {
            dst[i] = (u32)v;
        } else {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_ValueError, "image %R outside 0..%zd", items[i], d - 1);
            status = -1;
        }
    }
    Py_DECREF(tuple);
    return status;
}

/* The count permutations in items, read into consecutive rows of one new
 * zeroed buffer that has extra rows to spare.  A negative *d becomes the
 * length of items[0].  Free the result with PyMem_Free. */
static u32 *read_perms(PyObject *const *items, Py_ssize_t count, Py_ssize_t extra, Py_ssize_t *d)
{
    if (*d < 0 && (*d = PyObject_Length(items[0])) < 0)
        return NULL;
    u32 *rows = PyMem_Calloc((size_t)((count + extra) * *d) + 1, sizeof(u32));
    if (rows == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t k = 0; k < count; k++) {
        if (fill(items[k], rows + k * *d, *d, *d) < 0) {
            PyMem_Free(rows);
            return NULL;
        }
    }
    return rows;
}

/* read_perms over a tuple copy of the sequence perms; *count gets its
 * length.  With a negative *d the sequence must be nonempty. */
static u32 *read_seq(PyObject *perms, Py_ssize_t extra, Py_ssize_t *d, Py_ssize_t *count)
{
    PyObject *tuple = PySequence_Tuple(perms);
    if (tuple == NULL)
        return NULL;
    u32 *rows = NULL;
    *count = PyTuple_GET_SIZE(tuple);
    if (*count == 0 && *d < 0)
        PyErr_SetString(PyExc_IndexError, "no permutation to take the degree from");
    else
        rows = read_perms(PySequence_Fast_ITEMS(tuple), *count, extra, d);
    Py_DECREF(tuple);
    return rows;
}

static int arity(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments but %zd were given",
                 name, want, nargs);
    return -1;
}

/* -- permutation kernels --------------------------------------------------- */

static PyObject *compose(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n = -1;
    u32 *p;
    if (arity("compose", nargs, 2) < 0 || (p = read_perms(args, 2, 1, &n)) == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++)
        p[2 * n + i] = p[n + p[i]];
    PyObject *out = to_tuple(p + 2 * n, n);
    PyMem_Free(p);
    return out;
}

static PyObject *inverse(PyObject *Py_UNUSED(module), PyObject *a)
{
    Py_ssize_t n = -1;
    u32 *p = read_perms(&a, 1, 1, &n);
    if (p == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++)
        p[n + p[i]] = (u32)i;
    PyObject *out = to_tuple(p + n, n);
    PyMem_Free(p);
    return out;
}

static PyObject *conjugate(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n = -1;
    u32 *p;
    if (arity("conjugate", nargs, 2) < 0 || (p = read_perms(args, 2, 1, &n)) == NULL)
        return NULL;
    const u32 *x = p, *g = p + n;
    for (Py_ssize_t j = 0; j < n; j++)
        p[2 * n + g[j]] = g[x[j]];
    PyObject *out = to_tuple(p + 2 * n, n);
    PyMem_Free(p);
    return out;
}

/* Whether a and b, of degree n, commute: a[b[i]] == b[a[i]] for every i. */
static int commute(const u32 *a, const u32 *b, Py_ssize_t n)
{
    Py_ssize_t i = 0;
    while (i < n && a[b[i]] == b[a[i]])
        i++;
    return i == n;
}

static PyObject *commutes(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n = -1;
    u32 *p;
    if (arity("commutes", nargs, 2) < 0 || (p = read_perms(args, 2, 0, &n)) == NULL)
        return NULL;
    int ok = commute(p, p + n, n);
    PyMem_Free(p);
    return PyBool_FromLong(ok);
}

static unsigned long long gcd(unsigned long long x, unsigned long long y)
{
    while (y) {
        unsigned long long t = x % y;
        x = y;
        y = t;
    }
    return x;
}

/* order = lcm(order, len), kept in *small while it fits in 64 bits and in
 * the Python int *big from then on. */
static int lcm_into(unsigned long long *small, PyObject **big, unsigned long long len)
{
    if (*big == NULL) {
        unsigned long long step = len / gcd(*small, len);
        if (*small <= ULLONG_MAX / step) {
            *small *= step;
            return 0;
        }
        if ((*big = PyLong_FromUnsignedLongLong(*small)) == NULL)
            return -1;
    }
    PyObject *len_obj = PyLong_FromUnsignedLongLong(len);
    PyObject *rem = len_obj == NULL ? NULL : PyNumber_Remainder(*big, len_obj);
    Py_XDECREF(len_obj);
    if (rem == NULL)
        return -1;
    unsigned long long r = PyLong_AsUnsignedLongLong(rem);
    Py_DECREF(rem);
    if (r == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    PyObject *step = PyLong_FromUnsignedLongLong(len / gcd(len, r));
    PyObject *product = step == NULL ? NULL : PyNumber_Multiply(*big, step);
    Py_XDECREF(step);
    if (product == NULL)
        return -1;
    Py_DECREF(*big);
    *big = product;
    return 0;
}

static PyObject *element_order(PyObject *Py_UNUSED(module), PyObject *a)
{
    Py_ssize_t n = -1;
    u32 *p = read_perms(&a, 1, 1, &n);
    if (p == NULL)
        return NULL;
    u32 *seen = p + n;
    unsigned long long order = 1;
    PyObject *big = NULL;
    int status = 0;
    for (Py_ssize_t i = 0; status == 0 && i < n; i++) {
        unsigned long long len = 0;
        for (u32 j = (u32)i; !seen[j]; j = p[j]) {
            seen[j] = 1;
            len++;
        }
        if (len > 0)
            status = lcm_into(&order, &big, len);
    }
    PyMem_Free(p);
    if (status < 0) {
        Py_XDECREF(big);
        return NULL;
    }
    return big != NULL ? big : PyLong_FromUnsignedLongLong(order);
}

/* -- closure and orbits ------------------------------------------------------ */

/* Breadth-first search from the state start of n points, under the ng
 * generators in gens, of degree d.  A generator g sends a state x to the
 * state y[i] = g[x[i]] when inv is NULL, which for a permutation x is x g;
 * when inv holds the generators' inverses, x is a permutation, n is d, and
 * g sends it to g^-1 x g.  Returns the list of packed states in discovery
 * order, None once more than cap states are found, or NULL with an
 * exception set. */
static PyObject *search(const u32 *start, Py_ssize_t n, const u32 *gens, Py_ssize_t d,
                        const u32 *inv, Py_ssize_t ng, Py_ssize_t cap)
{
    u32 *x = PyMem_Calloc(2 * (size_t)n + 1, sizeof(u32)), *y;
    PyObject *seen = PySet_New(NULL), *queue = PyList_New(0), *key = NULL;
    if (x == NULL)
        PyErr_NoMemory();
    if (x == NULL || seen == NULL || queue == NULL || (key = packed(start, n)) == NULL
        || PySet_Add(seen, key) < 0 || PyList_Append(queue, key) < 0)
        goto fail;
    Py_CLEAR(key);
    y = x + n;
    for (Py_ssize_t q = 0; q < PyList_GET_SIZE(queue); q++) {
        unpack((const unsigned char *)PyBytes_AS_STRING(PyList_GET_ITEM(queue, q)), n, x);
        for (Py_ssize_t k = 0; k < ng; k++) {
            const u32 *g = gens + k * d;
            if (inv != NULL) {
                const u32 *g_inv = inv + k * d;
                for (Py_ssize_t i = 0; i < n; i++)
                    y[i] = g[x[g_inv[i]]];
            } else {
                for (Py_ssize_t i = 0; i < n; i++)
                    y[i] = g[x[i]];
            }
            Py_ssize_t before = PySet_GET_SIZE(seen);
            if ((key = packed(y, n)) == NULL || PySet_Add(seen, key) < 0)
                goto fail;
            if (PySet_GET_SIZE(seen) > before) {
                if (before >= cap) {
                    Py_DECREF(queue);
                    Py_INCREF(Py_None);
                    queue = Py_None;
                    goto done;
                }
                if (PyList_Append(queue, key) < 0)
                    goto fail;
            }
            Py_CLEAR(key);
        }
    }
    goto done;
fail:
    Py_CLEAR(queue);
done:
    Py_XDECREF(key);
    Py_XDECREF(seen);
    PyMem_Free(x);
    return queue;
}

/* Turn the result of search into the kernel's result, sorted or not, each
 * packed state replaced by its tuple of n images; consumes the reference to
 * states. */
static PyObject *finish(PyObject *states, Py_ssize_t n, int sorted)
{
    if (states == NULL || states == Py_None)
        return states;
    u32 *x = NULL;
    if ((sorted && PyList_Sort(states) < 0)
        || (x = PyMem_Malloc(((size_t)n + 1) * sizeof(u32))) == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        Py_DECREF(states);
        return NULL;
    }
    for (Py_ssize_t q = 0; q < PyList_GET_SIZE(states); q++) {
        unpack((const unsigned char *)PyBytes_AS_STRING(PyList_GET_ITEM(states, q)), n, x);
        PyObject *state = to_tuple(x, n);
        if (state == NULL || PyList_SetItem(states, q, state) < 0) {
            Py_CLEAR(states);
            break;
        }
    }
    PyMem_Free(x);
    return states;
}

static PyObject *close_group(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t d = -1, ng = 0;
    u32 *gens;
    if (arity("close_group", nargs, 2) < 0 || (gens = read_seq(args[0], 1, &d, &ng)) == NULL)
        return NULL;
    PyObject *out = NULL;
    Py_ssize_t cap = PyNumber_AsSsize_t(args[1], NULL);
    if (!(cap == -1 && PyErr_Occurred())) {
        u32 *identity = gens + ng * d;
        for (Py_ssize_t i = 0; i < d; i++)
            identity[i] = (u32)i;
        out = finish(search(identity, d, gens, d, NULL, ng, cap), d, 1);
    }
    PyMem_Free(gens);
    return out;
}

/* The orbit of args[0] under conjugation by the generators args[1], whose
 * inverses are args[2]. */
static PyObject *conjugacy_orbit(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t d = -1, ng = 0, ni = 0;
    PyObject *out = NULL;
    u32 *x = NULL, *g = NULL, *inv = NULL;
    if (arity("conjugacy_orbit", nargs, 3) < 0 || (x = read_perms(args, 1, 0, &d)) == NULL
        || (g = read_seq(args[1], 0, &d, &ng)) == NULL
        || (inv = read_seq(args[2], 0, &d, &ni)) == NULL)
        goto done;
    if (ni != ng)
        PyErr_Format(PyExc_ValueError, "%zd inverses for %zd generators", ni, ng);
    else
        out = finish(search(x, d, g, d, inv, ng, PY_SSIZE_T_MAX), d, 0);
done:
    PyMem_Free(x);
    PyMem_Free(g);
    PyMem_Free(inv);
    return out;
}

/* The orbit of the tuple of points args[0] under the permutations args[1],
 * which take their degree from the first of them and act on every entry. */
static PyObject *tuple_orbit(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t d = -1, ng = 0, n;
    PyObject *x = NULL, *out = NULL;
    u32 *perms = NULL, *start = NULL;
    if (arity("tuple_orbit", nargs, 2) < 0 || (x = PySequence_Tuple(args[0])) == NULL
        || (perms = read_seq(args[1], 0, &d, &ng)) == NULL)
        goto done;
    n = PyTuple_GET_SIZE(x);
    if ((start = PyMem_Calloc((size_t)n + 1, sizeof(u32))) == NULL)
        PyErr_NoMemory();
    else if (fill(x, start, n, d) == 0)
        out = finish(search(start, n, perms, d, NULL, ng, PY_SSIZE_T_MAX), n, 0);
done:
    Py_XDECREF(x);
    PyMem_Free(perms);
    PyMem_Free(start);
    return out;
}

/* -- filters ------------------------------------------------------------------- */

static PyObject *centralizer_filter(PyObject *Py_UNUSED(module), PyObject *const *args,
                                    Py_ssize_t nargs)
{
    Py_ssize_t nt = arity("centralizer_filter", nargs, 2) < 0 ? -1 : PyObject_Length(args[1]);
    if (nt <= 0)
        return nt < 0 ? NULL : PySequence_List(args[0]);
    Py_ssize_t d = -1;
    u32 *t = read_seq(args[1], 1, &d, &nt);
    if (t == NULL)
        return NULL;
    u32 *e = t + nt * d;
    PyObject *elements = PySequence_Fast(args[0], "expected a sequence");
    PyObject *out = elements == NULL ? NULL : PyList_New(0);
    for (Py_ssize_t q = 0; out != NULL && q < PySequence_Fast_GET_SIZE(elements); q++) {
        /* held, as fill may run code that drops it from a list */
        PyObject *elem = PySequence_Fast_GET_ITEM(elements, q);
        Py_ssize_t k = 0;
        Py_INCREF(elem);
        if (fill(elem, e, d, d) < 0)
            Py_CLEAR(out);
        while (out != NULL && k < nt && commute(e, t + k * d, d))
            k++;
        if (out != NULL && k == nt && PyList_Append(out, elem) < 0)
            Py_CLEAR(out);
        Py_DECREF(elem);
    }
    Py_XDECREF(elements);
    PyMem_Free(t);
    return out;
}

static PyObject *normalizer_filter(PyObject *Py_UNUSED(module), PyObject *const *args,
                                   Py_ssize_t nargs)
{
    Py_ssize_t ns = arity("normalizer_filter", nargs, 3) < 0 ? -1 : PyObject_Length(args[1]);
    if (ns <= 0)
        return ns < 0 ? NULL : PySequence_List(args[0]);
    Py_ssize_t d = -1;
    u32 *s = read_seq(args[1], 2, &d, &ns);
    if (s == NULL)
        return NULL;
    u32 *g = s + ns * d, *y = g + d;
    PyObject *sub = PySet_New(NULL), *members = NULL, *elements = NULL, *out = NULL, *key;
    if (sub == NULL || (members = PySequence_Fast(args[2], "expected a sequence")) == NULL)
        goto done;
    for (Py_ssize_t q = 0; q < PySequence_Fast_GET_SIZE(members); q++) {
        if (fill(PySequence_Fast_GET_ITEM(members, q), g, d, d) < 0 || (key = packed(g, d)) == NULL)
            goto done;
        int added = PySet_Add(sub, key);
        Py_DECREF(key);
        if (added < 0)
            goto done;
    }
    if ((elements = PySequence_Fast(args[0], "expected a sequence")) == NULL
        || (out = PyList_New(0)) == NULL)
        goto done;
    for (Py_ssize_t q = 0; q < PySequence_Fast_GET_SIZE(elements); q++) {
        /* held, as fill may run code that drops it from a list */
        PyObject *elem = PySequence_Fast_GET_ITEM(elements, q);
        int inside = 1;
        Py_INCREF(elem);
        if (fill(elem, g, d, d) < 0)
            inside = -1;
        for (Py_ssize_t k = 0; inside == 1 && k < ns; k++) {
            for (Py_ssize_t i = 0; i < d; i++)
                y[g[i]] = g[s[k * d + i]];
            inside = (key = packed(y, d)) == NULL ? -1 : PySet_Contains(sub, key);
            Py_XDECREF(key);
        }
        if (inside == 1 && PyList_Append(out, elem) < 0)
            inside = -1;
        Py_DECREF(elem);
        if (inside < 0)
            goto fail;
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    Py_XDECREF(elements);
    Py_XDECREF(members);
    Py_XDECREF(sub);
    PyMem_Free(s);
    return out;
}

/* -- module -------------------------------------------------------------------- */

#define FAST(f) ((PyCFunction)(void (*)(void))(f))

static PyMethodDef methods[] = {
    {"compose", FAST(compose), METH_FASTCALL,
     "compose($module, a, b, /)\n--\n\na then b: the permutation mapping i to b[a[i]]."},
    {"inverse", inverse, METH_O, "inverse($module, a, /)\n--\n\n"},
    {"conjugate", FAST(conjugate), METH_FASTCALL,
     "conjugate($module, x, g, /)\n--\n\nx conjugated by g, i.e. inverse(g) * x * g."},
    {"commutes", FAST(commutes), METH_FASTCALL, "commutes($module, a, b, /)\n--\n\n"},
    {"element_order", element_order, METH_O,
     "element_order($module, a, /)\n--\n\nThe order of a, exact at any size."},
    {"close_group", FAST(close_group), METH_FASTCALL,
     "close_group($module, gens, limit, /)\n--\n\n"
     "All products of the generators, sorted; None once the count passes limit.\n\n"
     "Breadth-first closure from the identity; the generator list must be\n"
     "nonempty and of uniform degree."},
    {"conjugacy_orbit", FAST(conjugacy_orbit), METH_FASTCALL,
     "conjugacy_orbit($module, x, gens, inverses, /)\n--\n\n"
     "Orbit of x under conjugation by the generators, in discovery order.\n\n"
     "inverses[k] is the inverse of gens[k]."},
    {"tuple_orbit", FAST(tuple_orbit), METH_FASTCALL,
     "tuple_orbit($module, x, perms, /)\n--\n\n"
     "Orbit of the tuple of points x under perms, in discovery order.\n\n"
     "A permutation acts on every entry at once: perm sends x to the tuple y\n"
     "with y[j] = perm[x[j]].  The perms must be nonempty and of one length,\n"
     "and x's entries points they act on."},
    {"centralizer_filter", FAST(centralizer_filter), METH_FASTCALL,
     "centralizer_filter($module, elements, targets, /)\n--\n\n"
     "Members of elements commuting with every target, input order kept."},
    {"normalizer_filter", FAST(normalizer_filter), METH_FASTCALL,
     "normalizer_filter($module, elements, sub_gens, sub_elements, /)\n--\n\n"
     "Members of elements conjugating the given subgroup onto itself."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "chromarank._kernels_c",
    .m_doc = "Compiled kernels; same contract as chromarank._kernels_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernels_c(void)
{
    for (long k = 0; k < SMALL; k++) {
        if ((small_int[k] = PyLong_FromLong(k)) == NULL)
            return NULL;
        size_t j = small_slot(small_int[k]);
        small_key[j] = small_int[k];
        small_value[j] = (u32)k;
    }
    PyObject *module = PyModule_Create(&kernels_module);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND", "compiled") < 0)
        Py_CLEAR(module);
    return module;
}
