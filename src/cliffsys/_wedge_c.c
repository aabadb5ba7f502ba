/* Compiled twin of _wedge_py: wedge accumulation over bitmask monomials.
 *
 * Masks must fit in 64 bits, coefficients in 31 bits (|c| < 2^31) and every
 * accumulated value in 62 bits (|acc| < 2^62).  Anything outside that range
 * raises OverflowError; cliffsys.kernel then repeats the whole computation on
 * the pure-Python kernel, so results stay exact.
 *
 * Sums go into an open-addressing table: linear probing over a power-of-two
 * array of (mask, value) slots, grown at half load.  Mask 0 marks an empty
 * slot, so the degree-0 monomial (mask 0) is kept in its own field.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define COEFF_LIMIT ((int64_t)1 << 31)
#define ACC_LIMIT ((int64_t)1 << 62)

/* -- accumulation table ------------------------------------------------------ */

typedef struct {
    uint64_t key; /* 0: empty */
    int64_t val;
} slot_t;

typedef struct {
    slot_t *slots;
    size_t mask;  /* capacity - 1 */
    int shift;    /* 64 - log2(capacity) */
    size_t len;   /* occupied slots */
    int64_t zero_val; /* the value of mask 0 */
} table_t;

static int
table_init(table_t *t)
{
    t->mask = 15;
    t->shift = 60;
    t->len = 0;
    t->zero_val = 0;
    t->slots = PyMem_Calloc(t->mask + 1, sizeof(slot_t));
    if (t->slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void
table_free(table_t *t)
{
    PyMem_Free(t->slots);
    t->slots = NULL;
}

static inline size_t
table_home(const table_t *t, uint64_t key)
{
    /* Fibonacci hashing: the top bits of key * 2^64/phi. */
    return (size_t)((key * 0x9E3779B97F4A7C15ull) >> t->shift);
}

static int
table_grow(table_t *t)
{
    size_t old_cap = t->mask + 1;
    slot_t *old = t->slots;
    slot_t *fresh = PyMem_Calloc(2 * old_cap, sizeof(slot_t));
    if (fresh == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    t->slots = fresh;
    t->mask = 2 * old_cap - 1;
    t->shift -= 1;
    for (size_t i = 0; i < old_cap; i++) {
        if (old[i].key) {
            size_t j = table_home(t, old[i].key);
            while (fresh[j].key)
                j = (j + 1) & t->mask;
            fresh[j] = old[i];
        }
    }
    PyMem_Free(old);
    return 0;
}

/* acc[key] += v; -1 with an exception set on overflow or out of memory. */
static inline int
table_add(table_t *t, uint64_t key, int64_t v)
{
    int64_t *val;
    if (key == 0) {
        val = &t->zero_val;
    }
    else {
        size_t i = table_home(t, key);
        while (t->slots[i].key != key) {
            if (t->slots[i].key == 0) {
                if (2 * (t->len + 1) > t->mask + 1) {
                    if (table_grow(t) < 0)
                        return -1;
                    i = table_home(t, key);
                    while (t->slots[i].key)
                        i = (i + 1) & t->mask;
                }
                t->slots[i].key = key;
                t->len++;
                break;
            }
            i = (i + 1) & t->mask;
        }
        val = &t->slots[i].val;
    }
    int64_t sum;
    if (__builtin_add_overflow(*val, v, &sum) || sum >= ACC_LIMIT || sum <= -ACC_LIMIT) {
        PyErr_SetString(PyExc_OverflowError, "accumulator out of compiled-kernel range");
        return -1;
    }
    *val = sum;
    return 0;
}

static PyObject *
term_tuple(uint64_t key, int64_t val)
{
    PyObject *m = PyLong_FromUnsignedLongLong(key);
    PyObject *c = PyLong_FromLongLong(val);
    PyObject *pair = (m && c) ? PyTuple_Pack(2, m, c) : NULL;
    Py_XDECREF(m);
    Py_XDECREF(c);
    return pair;
}

/* The nonzero entries as a list of (mask, coeff) tuples. */
static PyObject *
table_items(const table_t *t)
{
    Py_ssize_t count = t->zero_val != 0;
    for (size_t i = 0; i <= t->mask; i++)
        count += t->slots[i].key && t->slots[i].val;
    PyObject *out = PyList_New(count);
    if (out == NULL)
        return NULL;
    Py_ssize_t pos = 0;
    if (t->zero_val) {
        PyObject *pair = term_tuple(0, t->zero_val);
        if (pair == NULL)
            goto fail;
        PyList_SET_ITEM(out, pos++, pair);
    }
    for (size_t i = 0; i <= t->mask; i++) {
        if (t->slots[i].key && t->slots[i].val) {
            PyObject *pair = term_tuple(t->slots[i].key, t->slots[i].val);
            if (pair == NULL)
                goto fail;
            PyList_SET_ITEM(out, pos++, pair);
        }
    }
    return out;
fail:
    Py_DECREF(out);
    return NULL;
}

/* -- term lists ---------------------------------------------------------------- */

typedef struct {
    Py_ssize_t n;
    uint64_t *masks;
    int64_t *coeffs;
    uint64_t *below; /* below_parity(masks[i]) */
} terms_t;

/* Bit x is set when mb has an odd number of bits below x.  The sign of
 * merging sorted ma before sorted mb is then the parity of ma & below(mb):
 * the count of pairs x in ma, y in mb with x > y. */
static inline uint64_t
below_parity(uint64_t mb)
{
    uint64_t p = mb << 1;
    p ^= p << 1;
    p ^= p << 2;
    p ^= p << 4;
    p ^= p << 8;
    p ^= p << 16;
    p ^= p << 32;
    return p;
}

static void
terms_free(terms_t *t)
{
    PyMem_Free(t->masks); /* one block holds all three arrays */
}

/* Read [(mask, coeff), ...] into flat arrays; -1 with an exception set. */
static int
terms_load(PyObject *seq, terms_t *out)
{
    PyObject *fast = PySequence_Fast(seq, "terms must be a sequence of (mask, coeff) pairs");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    out->n = n;
    out->masks = PyMem_Calloc(3 * n + 1, sizeof(uint64_t));
    if (out->masks == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
    out->coeffs = (int64_t *)(out->masks + n);
    out->below = out->masks + 2 * n;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *pair = PySequence_Fast(PySequence_Fast_GET_ITEM(fast, i),
                                         "a term must be a (mask, coeff) pair");
        if (pair == NULL)
            goto fail;
        if (PySequence_Fast_GET_SIZE(pair) != 2) {
            Py_DECREF(pair);
            PyErr_SetString(PyExc_ValueError, "a term must be a (mask, coeff) pair");
            goto fail;
        }
        /* masks of 64 bits and more raise OverflowError here */
        uint64_t m = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(pair, 0));
        if (m == (uint64_t)-1 && PyErr_Occurred()) {
            Py_DECREF(pair);
            goto fail;
        }
        int64_t c = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(pair, 1));
        Py_DECREF(pair);
        if (c == -1 && PyErr_Occurred())
            goto fail;
        if (c >= COEFF_LIMIT || c <= -COEFF_LIMIT) {
            PyErr_SetString(PyExc_OverflowError, "coefficient out of compiled-kernel range");
            goto fail;
        }
        out->masks[i] = m;
        out->coeffs[i] = c;
        out->below[i] = below_parity(m);
    }
    Py_DECREF(fast);
    return 0;
fail:
    Py_DECREF(fast);
    terms_free(out);
    return -1;
}

/* -- accumulation loops ---------------------------------------------------------- */

/* a ^ b into t.  With square set, b is a and only the cross terms of a ^ a
 * are taken, each pair once and doubled (for an even-degree a). */
static int
accumulate(table_t *t, const terms_t *a, const terms_t *b, int square)
{
    for (Py_ssize_t i = 0; i < a->n; i++) {
        uint64_t ma = a->masks[i];
        int64_t ca = square ? 2 * a->coeffs[i] : a->coeffs[i];
        for (Py_ssize_t j = square ? i + 1 : 0; j < b->n; j++) {
            uint64_t mb = b->masks[j];
            if (ma & mb)
                continue;
            int64_t v;
            if (__builtin_mul_overflow(ca, b->coeffs[j], &v)) {
                PyErr_SetString(PyExc_OverflowError, "product out of compiled-kernel range");
                return -1;
            }
            if (__builtin_popcountll(ma & b->below[j]) & 1)
                v = -v;
            if (table_add(t, ma | mb, v) < 0)
                return -1;
        }
    }
    return 0;
}

/* Accumulate ta ^ tb into t, or the square of ta when tb is NULL. */
static int
accumulate_lists(table_t *t, PyObject *ta, PyObject *tb)
{
    terms_t a, b;
    if (terms_load(ta, &a) < 0)
        return -1;
    if (tb == NULL) {
        int rc = accumulate(t, &a, &a, 1);
        terms_free(&a);
        return rc;
    }
    if (terms_load(tb, &b) < 0) {
        terms_free(&a);
        return -1;
    }
    int rc = accumulate(t, &a, &b, 0);
    terms_free(&a);
    terms_free(&b);
    return rc;
}

/* -- Accumulator type ------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    table_t table;
} AccumulatorObject;

static PyObject *
Accumulator_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if (PyTuple_GET_SIZE(args) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "Accumulator() takes no arguments");
        return NULL;
    }
    AccumulatorObject *self = (AccumulatorObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    if (table_init(&self->table) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static void
Accumulator_dealloc(AccumulatorObject *self)
{
    table_free(&self->table);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Accumulator_add_product(AccumulatorObject *self, PyObject *args)
{
    PyObject *ta, *tb;
    if (!PyArg_ParseTuple(args, "OO:add_product", &ta, &tb))
        return NULL;
    if (accumulate_lists(&self->table, ta, tb) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Accumulator_add_square(AccumulatorObject *self, PyObject *ta)
{
    if (accumulate_lists(&self->table, ta, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Accumulator_items(AccumulatorObject *self, PyObject *Py_UNUSED(ignored))
{
    return table_items(&self->table);
}

static PyMethodDef Accumulator_methods[] = {
    {"add_product", (PyCFunction)Accumulator_add_product, METH_VARARGS,
     "Accumulate the wedge product of two term lists."},
    {"add_square", (PyCFunction)Accumulator_add_square, METH_O,
     "Accumulate t ^ t for an even-degree term list (cross terms doubled)."},
    {"items", (PyCFunction)Accumulator_items, METH_NOARGS,
     "The nonzero accumulated terms as [(mask, coeff), ...]."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject AccumulatorType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "cliffsys._wedge_c.Accumulator",
    .tp_doc = "Mutable term accumulator shared across many wedge operations.",
    .tp_basicsize = sizeof(AccumulatorObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Accumulator_new,
    .tp_dealloc = (destructor)Accumulator_dealloc,
    .tp_methods = Accumulator_methods,
};

/* -- module functions ------------------------------------------------------------ */

/* Letter i of a monomial becomes perm[i] with factor -signs[i], resorted with
 * its crossing sign.  A letter this kernel cannot take (i >= len(perm), a
 * target outside 0..63, |sign| >= 2^31) raises OverflowError, and the pure
 * kernel decides. */
static int
perm_action(table_t *t, const terms_t *a, const int *target, const int64_t *factor)
{
    for (Py_ssize_t idx = 0; idx < a->n; idx++) {
        uint64_t mask = a->masks[idx];
        int64_t c = a->coeffs[idx];
        uint64_t m = mask;
        while (m) {
            uint64_t low = m & (~m + 1);
            m ^= low;
            int i = __builtin_ctzll(low);
            if (target[i] < 0)
                goto overflow;
            int j = target[i];
            int64_t f = factor[i];
            uint64_t key = mask;
            if (j != i) {
                uint64_t without = mask ^ low;
                uint64_t jbit = (uint64_t)1 << j;
                if (without & jbit)
                    continue;
                int lo = i < j ? i : j, hi = i < j ? j : i;
                /* hi <= 63 and lo + 1 <= 63: no shift reaches 64 */
                uint64_t between = (((uint64_t)1 << hi) - 1) ^ (((uint64_t)1 << (lo + 1)) - 1);
                if (__builtin_popcountll(without & between) & 1)
                    f = -f;
                key = without | jbit;
            }
            int64_t v;
            if (__builtin_mul_overflow(c, f, &v))
                goto overflow;
            if (table_add(t, key, v) < 0)
                return -1;
        }
    }
    return 0;
overflow:
    PyErr_SetString(PyExc_OverflowError, "letter out of compiled-kernel range");
    return -1;
}

static PyObject *
signed_perm_action(PyObject *module, PyObject *args)
{
    PyObject *terms, *perm_obj, *signs_obj;
    if (!PyArg_ParseTuple(args, "OOO:signed_perm_action", &terms, &perm_obj, &signs_obj))
        return NULL;
    int target[64]; /* -1: letter left to the pure kernel */
    int64_t factor[64];
    for (int i = 0; i < 64; i++)
        target[i] = -1;
    PyObject *perm = PySequence_Fast(perm_obj, "perm must be a sequence");
    if (perm == NULL)
        return NULL;
    PyObject *signs = PySequence_Fast(signs_obj, "signs must be a sequence");
    if (signs == NULL) {
        Py_DECREF(perm);
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(perm);
    if (PySequence_Fast_GET_SIZE(signs) < n)
        n = PySequence_Fast_GET_SIZE(signs);
    if (n > 64)
        n = 64;
    for (Py_ssize_t i = 0; i < n; i++) {
        long long j = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(perm, i));
        if (j == -1 && PyErr_Occurred())
            break;
        long long s = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(signs, i));
        if (s == -1 && PyErr_Occurred())
            break;
        int usable = 0 <= j && j < 64 && -COEFF_LIMIT < s && s < COEFF_LIMIT;
        target[i] = usable ? (int)j : -1;
        factor[i] = usable ? -s : 0;
    }
    Py_DECREF(perm);
    Py_DECREF(signs);
    if (PyErr_Occurred())
        return NULL;

    terms_t a;
    table_t t;
    if (terms_load(terms, &a) < 0)
        return NULL;
    PyObject *out = NULL;
    if (table_init(&t) == 0) {
        if (perm_action(&t, &a, target, factor) == 0)
            out = table_items(&t);
        table_free(&t);
    }
    terms_free(&a);
    return out;
}

static PyMethodDef module_methods[] = {
    {"signed_perm_action", signed_perm_action, METH_VARARGS,
     "Derivation action: replace letter i by perm[i] with factor -signs[i]."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef wedge_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "cliffsys._wedge_c",
    .m_doc = "Compiled twin of _wedge_py: wedge accumulation over bitmask monomials.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__wedge_c(void)
{
    if (PyType_Ready(&AccumulatorType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&wedge_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&AccumulatorType);
    if (PyModule_AddObject(module, "Accumulator", (PyObject *)&AccumulatorType) < 0) {
        Py_DECREF(&AccumulatorType);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddStringConstant(module, "BACKEND", "c") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
