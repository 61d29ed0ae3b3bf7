/* The compiled kernel's source, with two static routines exposed to the
 * tests: derivatives(zeros, z, order) -> (P, P', ...) for P the product of the
 * Blaschke factors at z and order 1 or 3, as blaschke() returns them; and
 * objective(zeros, lam, z, slope) -> f, the seminorm objective of
 * ascent_terms() at z.  The
 * ``ckernel_probe`` fixture of conftest.py builds it with the kernel's flags,
 * so a sanitizer build of the kernel tests covers these paths too. */
#include "_ckernel.c"

static const array_spec probe_spec = {"Zd", "zeros", 16, 0, -1};

static PyObject *derivatives(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj;
    Py_buffer b;
    Py_complex z, out[4];
    cplx d[4];
    int order, k;

    if (!PyArg_ParseTuple(args, "ODi", &obj, &z, &order))
        return NULL;
    if (order != 1 && order != 3) {
        PyErr_SetString(PyExc_ValueError, "order must be 1 or 3");
        return NULL;
    }
    if (get_array(obj, &b, &probe_spec, -1) < 0)
        return NULL;
    blaschke(b.len / 16, b.buf, mk(z.real, z.imag), order, d);
    PyBuffer_Release(&b);
    for (k = 0; k <= order; k++) {
        out[k].real = d[k].re;
        out[k].imag = d[k].im;
    }
    return order == 1 ? Py_BuildValue("(DD)", &out[0], &out[1])
                      : Py_BuildValue("(DDDD)", &out[0], &out[1], &out[2], &out[3]);
}

static PyObject *objective(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj;
    Py_buffer b;
    Py_complex lam, z;
    double slope;
    ascent_point p;

    if (!PyArg_ParseTuple(args, "ODDd", &obj, &lam, &z, &slope))
        return NULL;
    if (get_array(obj, &b, &probe_spec, -1) < 0)
        return NULL;
    ascent_terms(b.len / 16, b.buf, mk(lam.real, lam.imag), mk(z.real, z.imag), slope, &p);
    PyBuffer_Release(&b);
    return PyFloat_FromDouble(p.f);
}

static PyMethodDef probe_methods[] = {
    {"derivatives", derivatives, METH_VARARGS, "(P, P', ...) of blaschke() at z."},
    {"objective", objective, METH_VARARGS, "f of ascent_terms() at z."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef probe_module = {
    PyModuleDef_HEAD_INIT, "_ckernel_probe", "The compiled B evaluator and objective.",
    0, probe_methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__ckernel_probe(void) { return PyModule_Create(&probe_module); }
