/* _evcore: native event core for the repro discrete-event simulator.
 *
 * Three jobs, all bit-compatible with the pure-Python engine and pump in
 * repro/sim/engine.py and repro/net/port.py (which remain the ground
 * truth and the fallback):
 *
 * 1. A binary heap of *light events* — one-shot, never-cancelled
 *    callbacks — keyed by native (int64 time, int64 seq) pairs, so heap
 *    maintenance costs a few integer compares instead of Python tuple
 *    comparisons.  ~94% of all events in a packet simulation are light
 *    (serialization-finish and propagation-arrival).
 *
 * 2. The fused dispatch loop: pops the global minimum across the native
 *    light heap and the Python EventQueue heap (regular, cancellable
 *    Events) and invokes callbacks until a stop condition holds.
 *
 * 3. The store-and-forward hop.  A Port owns one egress direction's
 *    whole pump state — the FIFO of packet handles, drop-tail admission
 *    with ECN/INC marking, the transmitter, the link's serialization and
 *    propagation delays, and every queue/port/link counter — and calling
 *    it *is* the port's send.  Its serialization-finish and the
 *    propagation-arrival it schedules are light events on the same heap
 *    under the same (time, seq) keys; an arrival at a switch or host is
 *    demultiplexed in C by a Demux over the node's live forwarding table,
 *    so a packet only re-enters Python at an endpoint's on_packet (or an
 *    installed queue hook, or a Link subclass's propagate).
 *
 * Ordering is *provably* identical to the pure path: both heaps draw
 * sequence numbers from one shared counter (owned here in native mode),
 * every key (time, seq) is unique, and dispatch always takes the global
 * minimum — so the dispatch order is the unique total order by
 * (time, seq), independent of heap internals.  The port pushes exactly
 * the events the Python pump pushes, in the same order.
 *
 * Field access uses __slots__ member offsets resolved once per run (with
 * a GetAttr fallback should a field ever stop being a slot), so the
 * per-event engine overhead is a few pointer reads, not dict lookups.
 *
 * The module is optional: repro/sim/_native.py compiles it on demand
 * with the host toolchain and the engine silently falls back to pure
 * Python when unavailable (REPRO_NATIVE=0 forces the fallback).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ------------------------------------------------------------------ */
/* Light-event heap: C struct entries, native int64 keys.              */

/* What a light event does when it fires. */
enum {
    LK_CALL = 0,    /* cb(arg): a Python callable                       */
    LK_FINISH = 1,  /* serialization of handle h on Port cb finished    */
    LK_ARRIVE = 2,  /* handle h arrives at the node Demux cb serves     */
};

typedef struct {
    long long t;    /* absolute fire time (ns)           */
    long long s;    /* global sequence number            */
    PyObject *cb;   /* owned                             */
    PyObject *arg;  /* owned for LK_CALL, else NULL      */
    Py_ssize_t h;   /* packet handle (LK_FINISH/ARRIVE)  */
    int kind;
} LEntry;

typedef struct {
    PyObject_HEAD
    LEntry *heap;
    Py_ssize_t size;
    Py_ssize_t capacity;
    long long seq;  /* the simulation-wide sequence counter (shared with
                       the Python EventQueue via take_seq) */
} EventCore;

static int
core_grow(EventCore *self)
{
    Py_ssize_t cap = self->capacity ? self->capacity * 2 : 256;
    LEntry *heap = PyMem_Realloc(self->heap, cap * sizeof(LEntry));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = heap;
    self->capacity = cap;
    return 0;
}

/* entry a sorts before b?  Keys are unique, so no tie-break is needed
   beyond seq. */
#define LENTRY_LT(a, b) ((a).t < (b).t || ((a).t == (b).t && (a).s < (b).s))

static void
core_siftup(EventCore *self, Py_ssize_t pos)
{
    LEntry *heap = self->heap;
    LEntry item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!LENTRY_LT(item, heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static void
core_siftdown(EventCore *self, Py_ssize_t pos)
{
    LEntry *heap = self->heap;
    Py_ssize_t n = self->size;
    LEntry item = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && LENTRY_LT(heap[child + 1], heap[child]))
            child += 1;
        if (!LENTRY_LT(heap[child], item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

/* Push an entry under the next sequence number; takes new references to
 * cb and (when not NULL) arg. */
static int
core_push_entry(EventCore *self, long long t, int kind, PyObject *cb, PyObject *arg,
                Py_ssize_t h)
{
    if (self->size == self->capacity && core_grow(self) < 0)
        return -1;
    LEntry *e = &self->heap[self->size];
    e->t = t;
    e->s = self->seq++;
    Py_INCREF(cb);
    Py_XINCREF(arg);
    e->cb = cb;
    e->arg = arg;
    e->h = h;
    e->kind = kind;
    self->size += 1;
    core_siftup(self, self->size - 1);
    return 0;
}

/* Pop the root into *out (ownership of cb/arg transfers to caller). */
static void
core_pop_entry(EventCore *self, LEntry *out)
{
    *out = self->heap[0];
    self->size -= 1;
    if (self->size > 0) {
        self->heap[0] = self->heap[self->size];
        core_siftdown(self, 0);
    }
}

/* ------------------------------------------------------------------ */
/* Interned attribute names + shared constants (module init).          */

static PyObject *str_now, *str_stop, *str_heap, *str_free, *str_live;
static PyObject *str_cancelled, *str_deadline, *str_time, *str_seq;
static PyObject *str_dseq, *str_callback, *str_args, *str_processed;
static PyObject *long_minus_one, *empty_tuple;

/* ------------------------------------------------------------------ */
/* __slots__ member offsets, resolved once per run() call.             */

typedef struct {
    Py_ssize_t now, stop;                                  /* Simulator  */
    Py_ssize_t live;                                       /* EventQueue */
    Py_ssize_t cancelled, deadline, time, seq, dseq;       /* Event      */
    Py_ssize_t callback, args;                             /* Event      */
} Offsets;

static Py_ssize_t
slot_offset(PyTypeObject *tp, PyObject *name)
{
    PyObject *descr = PyObject_GetAttr((PyObject *)tp, name);
    Py_ssize_t off = -1;
    if (descr == NULL) {
        PyErr_Clear();
        return -1;
    }
    if (Py_TYPE(descr) == &PyMemberDescr_Type) {
        PyMemberDef *def = ((PyMemberDescrObject *)descr)->d_member;
        if (def->type == T_OBJECT_EX || def->type == T_OBJECT)
            off = def->offset;
    }
    Py_DECREF(descr);
    return off;
}

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* Borrowed read of an object field; falls back to GetAttr when the
 * offset is unknown (then *ownedp holds a reference the caller must
 * release).  Returns NULL with an exception set on failure. */
static inline PyObject *
field_get(PyObject *obj, Py_ssize_t off, PyObject *name, PyObject **ownedp)
{
    if (off >= 0) {
        PyObject *v = SLOT(obj, off);
        *ownedp = NULL;
        if (v == NULL)
            PyErr_SetObject(PyExc_AttributeError, name);
        return v;
    }
    *ownedp = PyObject_GetAttr(obj, name);
    return *ownedp;
}

static inline int
field_set(PyObject *obj, Py_ssize_t off, PyObject *name, PyObject *v)
{
    if (off >= 0) {
        PyObject *old = SLOT(obj, off);
        Py_INCREF(v);
        SLOT(obj, off) = v;
        Py_XDECREF(old);
        return 0;
    }
    return PyObject_SetAttr(obj, name, v);
}

/* ------------------------------------------------------------------ */
/* Python-level methods                                               */

static PyObject *
EventCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    EventCore *self = (EventCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->heap = NULL;
    self->size = 0;
    self->capacity = 0;
    self->seq = 0;
    return (PyObject *)self;
}

/* Drop every pending light event.  The heap is detached before any
 * reference is released, because releasing one can run arbitrary code
 * (a finalizer) that pushes onto this core again. */
static void
core_drop_all(EventCore *self)
{
    LEntry *heap = self->heap;
    Py_ssize_t n = self->size;
    self->heap = NULL;
    self->size = 0;
    self->capacity = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_DECREF(heap[i].cb);
        Py_XDECREF(heap[i].arg);
    }
    PyMem_Free(heap);
}

/* GC support: pending callbacks are usually bound methods of components
 * that hold the Simulator, which holds this core — a cycle the collector
 * must be able to see and break. */
static int
EventCore_traverse(EventCore *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++) {
        Py_VISIT(self->heap[i].cb);
        Py_VISIT(self->heap[i].arg);
    }
    return 0;
}

static int
EventCore_tp_clear(EventCore *self)
{
    core_drop_all(self);
    return 0;
}

static void
EventCore_dealloc(EventCore *self)
{
    PyObject_GC_UnTrack(self);
    core_drop_all(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
EventCore_take_seq(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->seq++);
}

/* push(time, callback, arg): schedule a light event at absolute `time`. */
static PyObject *
EventCore_push(EventCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "push expects (time, callback, arg)");
        return NULL;
    }
    long long t = PyLong_AsLongLong(args[0]);
    if (t == -1 && PyErr_Occurred())
        return NULL;
    if (core_push_entry(self, t, LK_CALL, args[1], args[2], 0) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static Py_ssize_t
EventCore_len(PyObject *op)
{
    return ((EventCore *)op)->size;
}

static PyObject *
EventCore_peek_time(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->heap[0].t);
}

static PyObject *
EventCore_clear(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    core_drop_all(self);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Object-heap (the Python EventQueue `_heap` of (time, seq, Event)
 * tuples) — the same sift algorithm as heapq, via rich comparison.
 * Entries are tuples whose first two elements are unique ints, so
 * comparisons are C tuple comparisons and never reach the Event.      */

static int
obj_siftdown(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *item = PyList_GET_ITEM(heap, pos);
    Py_INCREF(item);
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n) {
            int lt = PyObject_RichCompareBool(
                PyList_GET_ITEM(heap, child + 1), PyList_GET_ITEM(heap, child), Py_LT);
            if (lt < 0) {
                Py_DECREF(item);
                return -1;
            }
            if (lt)
                child += 1;
        }
        PyObject *c = PyList_GET_ITEM(heap, child);
        int lt = PyObject_RichCompareBool(c, item, Py_LT);
        if (lt < 0) {
            Py_DECREF(item);
            return -1;
        }
        if (!lt)
            break;
        Py_INCREF(c);
        PyList_SetItem(heap, pos, c);
        pos = child;
    }
    PyList_SetItem(heap, pos, item);
    return 0;
}

/* Remove heap[0]; returns new reference to it (or NULL on error). */
static PyObject *
obj_heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *root = PyList_GET_ITEM(heap, 0);
    Py_INCREF(root);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(root);
        Py_DECREF(last);
        return NULL;
    }
    if (n > 1) {
        PyList_SetItem(heap, 0, last);  /* steals ref */
        if (obj_siftdown(heap, 0) < 0) {
            Py_DECREF(root);
            return NULL;
        }
    } else {
        Py_DECREF(last);
    }
    return root;
}

/* Replace heap[0] with newentry (ref stolen) and restore heap order. */
static int
obj_heap_replace(PyObject *heap, PyObject *newentry)
{
    PyList_SetItem(heap, 0, newentry);  /* steals ref */
    return obj_siftdown(heap, 0);
}

/* sim.events_processed += n, preserving any pending exception (mirrors
 * the pure loop's `finally` accounting so partial progress is credited
 * even when a callback raises). */
static void
bump_processed(PyObject *sim, long long n)
{
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    PyObject *cur = PyObject_GetAttr(sim, str_processed);
    if (cur != NULL) {
        long long total = PyLong_AsLongLong(cur);
        Py_DECREF(cur);
        if (!(total == -1 && PyErr_Occurred())) {
            PyObject *upd = PyLong_FromLongLong(total + n);
            if (upd != NULL) {
                (void)PyObject_SetAttr(sim, str_processed, upd);
                Py_DECREF(upd);
            }
        }
    }
    PyErr_Clear();
    PyErr_Restore(type, value, tb);
}

/* ------------------------------------------------------------------ */
/* Port: one egress direction's store-and-forward pump, state in C.   *
 *                                                                    *
 * Mirrors repro/net/port.py's Python pump over a DropTailQueue and a *
 * Link step for step (see OutputPort._send / _start_next /           *
 * _finish_tx, DropTailQueue.enqueue / dequeue, Link.propagate), so   *
 * both push the same light events in the same order.  Python sees    *
 * the state through members named after the DropTailQueue, OutputPort *
 * and Link attributes they back.                                     */

/* Packet flag bits (repro.net.pool). */
#define F_ECT 2
#define F_CE 4
#define F_INC 16

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;  /* calling the port is its send(h) */
    EventCore *core;            /* owned */
    PyObject *sim;              /* owned: the clock is sim.now */
    Py_ssize_t now_off;         /* __slots__ offset of sim.now, or -1 */
    PyObject *flags;            /* pool.flags (bytearray) */
    PyObject *wire;             /* pool.wire_bytes (list of int) */
    PyObject *pool_free;        /* pool.free: a dropped packet ends here */
    /* FIFO of queued handles: a ring buffer */
    Py_ssize_t *ring;
    Py_ssize_t head, count, cap;
    /* DropTailQueue */
    long long capacity_bytes;
    char has_ecn, has_inc;      /* threshold set (None disables it) */
    long long ecn_threshold, inc_threshold;
    long long occupancy_bytes;
    long long enqueued_packets, enqueued_bytes;
    long long dequeued_packets, dequeued_bytes;
    long long dropped_packets, dropped_bytes;
    long long marked_packets, inc_marked_packets;
    PyObject *on_drop, *on_mark, *on_enqueue;  /* None or NULL: unset */
    /* OutputPort transmitter */
    char busy;
    long long tx_packets, tx_bytes;
    /* Link */
    long long rate_bps, prop_delay_ns;
    long long delivered_packets, delivered_bytes;
    PyObject *arrival;    /* Demux, or a callable taking the handle */
    PyObject *propagate;  /* Link subclass: propagate(sim, h) replaces the hop */
    PyObject *serialize;  /* Link subclass: serialization_delay(wire_bytes) */
} Port;

/* Demux: a switch's or host's receive(h) — `table[keys[h]]` is the next
 * send (a Port or a Python callable) or the flow's on_packet.  Misses go
 * to the node's own receive, which counts and frees them. */
typedef struct {
    PyObject_HEAD
    PyObject *table;     /* owned dict, live: routes added later are seen */
    PyObject *keys;      /* owned pool column (list of int) */
    PyObject *fallback;  /* owned: the node's receive */
} Demux;

static PyTypeObject PortType;
static PyTypeObject DemuxType;

/* An optional object member: NULL and None both mean unset. */
#define IS_SET(obj) ((obj) != NULL && (obj) != Py_None)

/* fn(h) with a boxed handle; 0 or -1 with an exception set. */
static int
call_with_handle(PyObject *fn, Py_ssize_t h)
{
    PyObject *boxed = PyLong_FromSsize_t(h);
    if (boxed == NULL)
        return -1;
    PyObject *res = PyObject_CallOneArg(fn, boxed);
    Py_DECREF(boxed);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static int
port_wire(Port *p, Py_ssize_t h, long long *out)
{
    if ((size_t)h >= (size_t)PyList_GET_SIZE(p->wire) ||
        (size_t)h >= (size_t)PyByteArray_GET_SIZE(p->flags)) {
        PyErr_Format(PyExc_IndexError, "packet handle %zd out of range", h);
        return -1;
    }
    long long w = PyLong_AsLongLong(PyList_GET_ITEM(p->wire, h));
    if (w == -1 && PyErr_Occurred())
        return -1;
    *out = w;
    return 0;
}

/* The flag byte of handle h.  Re-derived on every access: a hook may run
 * Python code that grows the pool, which can move the bytearray. */
#define PORT_FLAGS(p) ((unsigned char *)PyByteArray_AS_STRING((p)->flags))

static int
port_now(Port *p, long long *out)
{
    PyObject *now;
    if (p->now_off >= 0) {
        now = SLOT(p->sim, p->now_off);
        if (now == NULL) {
            PyErr_SetObject(PyExc_AttributeError, str_now);
            return -1;
        }
        Py_INCREF(now);
    } else {
        now = PyObject_GetAttr(p->sim, str_now);
        if (now == NULL)
            return -1;
    }
    *out = PyLong_AsLongLong(now);
    Py_DECREF(now);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* Link.serialization_delay: the frame's bits at the link rate, rounded
 * up to a whole nanosecond (repro.sim.units.transmission_time_ns). */
static int
port_serialization(Port *p, long long wire, long long *out)
{
    if (IS_SET(p->serialize)) {
        PyObject *res = PyObject_CallFunction(p->serialize, "L", wire);
        if (res == NULL)
            return -1;
        *out = PyLong_AsLongLong(res);
        Py_DECREF(res);
        return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
    }
    if (p->rate_bps <= 0) {
        PyErr_Format(PyExc_ValueError, "link rate must be positive, got %lld", p->rate_bps);
        return -1;
    }
    if (wire < 0) {
        PyErr_Format(PyExc_ValueError, "size must be non-negative, got %lld", wire);
        return -1;
    }
    if (wire > LLONG_MAX / 8000000000LL) {
        PyErr_SetString(PyExc_OverflowError, "frame too large to serialize");
        return -1;
    }
    long long bits_ns = wire * 8 * 1000000000LL;
    *out = bits_ns / p->rate_bps + (bits_ns % p->rate_bps != 0);
    return 0;
}

static int
ring_push(Port *p, Py_ssize_t h)
{
    if (p->count == p->cap) {
        Py_ssize_t cap = p->cap ? p->cap * 2 : 16;
        Py_ssize_t *ring = PyMem_Malloc(cap * sizeof(Py_ssize_t));
        if (ring == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < p->count; i++)
            ring[i] = p->ring[(p->head + i) % p->cap];
        PyMem_Free(p->ring);
        p->ring = ring;
        p->head = 0;
        p->cap = cap;
    }
    p->ring[(p->head + p->count) % p->cap] = h;
    p->count += 1;
    return 0;
}

/* DropTailQueue.enqueue: mark against the occupancy the arriving packet
 * sees, then admit or drop.  1 admitted, 0 dropped (handle freed), -1
 * error. */
static int
port_admit(Port *p, Py_ssize_t h)
{
    long long wire;
    if (port_wire(p, h, &wire) < 0)
        return -1;
    long long occupancy = p->occupancy_bytes;
    unsigned char flags = PORT_FLAGS(p)[h];
    if (p->has_ecn && (flags & F_ECT) && occupancy > p->ecn_threshold && !(flags & F_CE)) {
        flags |= F_CE;
        PORT_FLAGS(p)[h] = flags;
        p->marked_packets += 1;
        if (IS_SET(p->on_mark) && call_with_handle(p->on_mark, h) < 0)
            return -1;
    }
    if (p->has_inc && occupancy > p->inc_threshold && !(flags & F_INC)) {
        PORT_FLAGS(p)[h] = flags | F_INC;
        p->inc_marked_packets += 1;
    }
    if (occupancy + wire > p->capacity_bytes) {
        p->dropped_packets += 1;
        p->dropped_bytes += wire;
        if (IS_SET(p->on_drop) && call_with_handle(p->on_drop, h) < 0)
            return -1;
        return call_with_handle(p->pool_free, h);
    }
    if (ring_push(p, h) < 0)
        return -1;
    p->occupancy_bytes = occupancy + wire;
    p->enqueued_packets += 1;
    p->enqueued_bytes += wire;
    if (IS_SET(p->on_enqueue) && call_with_handle(p->on_enqueue, h) < 0)
        return -1;
    return 1;
}

/* DropTailQueue.dequeue: 1 with the handle and its wire size set, 0 when
 * empty, -1 error. */
static int
port_pop(Port *p, Py_ssize_t *hp, long long *wirep)
{
    if (p->count == 0)
        return 0;
    Py_ssize_t h = p->ring[p->head];
    p->head = (p->head + 1) % p->cap;
    p->count -= 1;
    long long wire;
    if (port_wire(p, h, &wire) < 0)
        return -1;
    p->occupancy_bytes -= wire;
    p->dequeued_packets += 1;
    p->dequeued_bytes += wire;
    *hp = h;
    *wirep = wire;
    return 1;
}

/* OutputPort._start_next: serialize the head-of-line frame, or go idle. */
static int
port_start_next(Port *p, long long now)
{
    Py_ssize_t h;
    long long wire, delay;
    int got = port_pop(p, &h, &wire);
    if (got <= 0) {
        if (got == 0)
            p->busy = 0;
        return got;
    }
    p->busy = 1;
    if (port_serialization(p, wire, &delay) < 0)
        return -1;
    return core_push_entry(p->core, now + delay, LK_FINISH, (PyObject *)p, NULL, h);
}

/* OutputPort._send: 1 admitted, 0 dropped, -1 error. */
static int
port_send(Port *p, Py_ssize_t h, long long now)
{
    int admitted = port_admit(p, h);
    if (admitted <= 0)
        return admitted;
    if (!p->busy && port_start_next(p, now) < 0)
        return -1;
    return 1;
}

/* OutputPort._finish_tx: the frame left the wire; hand it to the link
 * (Link.propagate), then start the next one. */
static int
port_finish(Port *p, Py_ssize_t h, long long now)
{
    long long wire;
    if (port_wire(p, h, &wire) < 0)
        return -1;
    p->tx_packets += 1;
    p->tx_bytes += wire;
    if (IS_SET(p->propagate)) {
        PyObject *res = PyObject_CallFunction(p->propagate, "On", p->sim, h);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    } else {
        p->delivered_packets += 1;
        p->delivered_bytes += wire;
        PyObject *arrival = p->arrival;
        if (!IS_SET(arrival)) {
            PyErr_SetString(PyExc_RuntimeError, "port link has no destination");
            return -1;
        }
        int rc;
        if (Py_TYPE(arrival) == &DemuxType) {
            rc = core_push_entry(p->core, now + p->prop_delay_ns, LK_ARRIVE, arrival, NULL, h);
        } else {
            PyObject *boxed = PyLong_FromSsize_t(h);
            if (boxed == NULL)
                return -1;
            rc = core_push_entry(p->core, now + p->prop_delay_ns, LK_CALL, arrival, boxed, 0);
            Py_DECREF(boxed);
        }
        if (rc < 0)
            return -1;
    }
    return port_start_next(p, now);
}

/* Switch.receive / Host.receive. */
static int
demux_deliver(Demux *d, Py_ssize_t h, long long now)
{
    if ((size_t)h >= (size_t)PyList_GET_SIZE(d->keys)) {
        PyErr_Format(PyExc_IndexError, "packet handle %zd out of range", h);
        return -1;
    }
    PyObject *target = PyDict_GetItemWithError(d->table, PyList_GET_ITEM(d->keys, h));
    if (target == NULL) {
        if (PyErr_Occurred())
            return -1;
        return call_with_handle(d->fallback, h);
    }
    int rc;
    Py_INCREF(target);  /* the call may unregister it */
    if (Py_TYPE(target) == &PortType)
        rc = port_send((Port *)target, h, now) < 0 ? -1 : 0;
    else
        rc = call_with_handle(target, h);
    Py_DECREF(target);
    return rc;
}

static PyObject *
Port_vectorcall(PyObject *op, PyObject *const *args, size_t nargsf, PyObject *kwnames)
{
    Port *p = (Port *)op;
    if (PyVectorcall_NARGS(nargsf) != 1 || kwnames != NULL) {
        PyErr_SetString(PyExc_TypeError, "send expects one packet handle");
        return NULL;
    }
    if (p->core == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "port is detached from its event core");
        return NULL;
    }
    Py_ssize_t h = PyLong_AsSsize_t(args[0]);
    long long now;
    if ((h == -1 && PyErr_Occurred()) || port_now(p, &now) < 0)
        return NULL;
    int rc = port_send(p, h, now);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

/* enqueue(h) -> bool: queue admission only (DropTailQueue.enqueue). */
static PyObject *
Port_enqueue(Port *p, PyObject *arg)
{
    Py_ssize_t h = PyLong_AsSsize_t(arg);
    if (h == -1 && PyErr_Occurred())
        return NULL;
    int rc = port_admit(p, h);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

/* dequeue() -> handle or None (DropTailQueue.dequeue). */
static PyObject *
Port_dequeue(Port *p, PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t h;
    long long wire;
    int got = port_pop(p, &h, &wire);
    if (got < 0)
        return NULL;
    if (got == 0)
        Py_RETURN_NONE;
    return PyLong_FromSsize_t(h);
}

static Py_ssize_t
Port_len(PyObject *op)
{
    return ((Port *)op)->count;
}

/* iter(port): the queued handles, head of line first. */
static PyObject *
Port_iter(PyObject *op)
{
    Port *p = (Port *)op;
    PyObject *handles = PyList_New(p->count);
    if (handles == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < p->count; i++) {
        PyObject *h = PyLong_FromSsize_t(p->ring[(p->head + i) % p->cap]);
        if (h == NULL) {
            Py_DECREF(handles);
            return NULL;
        }
        PyList_SET_ITEM(handles, i, h);
    }
    PyObject *it = PyObject_GetIter(handles);
    Py_DECREF(handles);
    return it;
}

/* A threshold reads None when disabled. */
static PyObject *
threshold_get(char has, long long value)
{
    if (!has)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(value);
}

static int
threshold_set(PyObject *v, char *has, long long *value)
{
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete a threshold");
        return -1;
    }
    if (v == Py_None) {
        *has = 0;
        return 0;
    }
    long long x = PyLong_AsLongLong(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *has = 1;
    *value = x;
    return 0;
}

static PyObject *
Port_get_ecn(Port *p, void *Py_UNUSED(c))
{
    return threshold_get(p->has_ecn, p->ecn_threshold);
}

static int
Port_set_ecn(Port *p, PyObject *v, void *Py_UNUSED(c))
{
    return threshold_set(v, &p->has_ecn, &p->ecn_threshold);
}

static PyObject *
Port_get_inc(Port *p, void *Py_UNUSED(c))
{
    return threshold_get(p->has_inc, p->inc_threshold);
}

static int
Port_set_inc(Port *p, PyObject *v, void *Py_UNUSED(c))
{
    return threshold_set(v, &p->has_inc, &p->inc_threshold);
}

static PyGetSetDef Port_getset[] = {
    {"ecn_threshold_bytes", (getter)Port_get_ecn, (setter)Port_set_ecn, NULL, NULL},
    {"inc_threshold_bytes", (getter)Port_get_inc, (setter)Port_set_inc, NULL, NULL},
    {NULL},
};

#define PORT_LL(name) {#name, T_LONGLONG, offsetof(Port, name), 0, NULL}
#define PORT_OBJ(name) {#name, T_OBJECT, offsetof(Port, name), 0, NULL}

static PyMemberDef Port_members[] = {
    PORT_LL(capacity_bytes),
    PORT_LL(occupancy_bytes),
    PORT_LL(enqueued_packets),
    PORT_LL(enqueued_bytes),
    PORT_LL(dequeued_packets),
    PORT_LL(dequeued_bytes),
    PORT_LL(dropped_packets),
    PORT_LL(dropped_bytes),
    PORT_LL(marked_packets),
    PORT_LL(inc_marked_packets),
    PORT_OBJ(on_drop),
    PORT_OBJ(on_mark),
    PORT_OBJ(on_enqueue),
    {"busy", T_BOOL, offsetof(Port, busy), READONLY, NULL},
    PORT_LL(tx_packets),
    PORT_LL(tx_bytes),
    PORT_LL(rate_bps),
    PORT_LL(prop_delay_ns),
    PORT_LL(delivered_packets),
    PORT_LL(delivered_bytes),
    PORT_OBJ(arrival),
    PORT_OBJ(propagate),
    PORT_OBJ(serialize),
    {NULL},
};

static PyMethodDef Port_methods[] = {
    {"enqueue", (PyCFunction)Port_enqueue, METH_O,
     "enqueue(h) -> bool: mark and admit (or drop and free) without pumping."},
    {"dequeue", (PyCFunction)Port_dequeue, METH_NOARGS,
     "dequeue() -> head-of-line handle, or None when empty."},
    {NULL, NULL, 0, NULL},
};

static int
Port_traverse(Port *p, visitproc visit, void *arg)
{
    Py_VISIT(p->core);
    Py_VISIT(p->sim);
    Py_VISIT(p->flags);
    Py_VISIT(p->wire);
    Py_VISIT(p->pool_free);
    Py_VISIT(p->on_drop);
    Py_VISIT(p->on_mark);
    Py_VISIT(p->on_enqueue);
    Py_VISIT(p->arrival);
    Py_VISIT(p->propagate);
    Py_VISIT(p->serialize);
    return 0;
}

static int
Port_clear(Port *p)
{
    Py_CLEAR(p->core);
    Py_CLEAR(p->sim);
    Py_CLEAR(p->flags);
    Py_CLEAR(p->wire);
    Py_CLEAR(p->pool_free);
    Py_CLEAR(p->on_drop);
    Py_CLEAR(p->on_mark);
    Py_CLEAR(p->on_enqueue);
    Py_CLEAR(p->arrival);
    Py_CLEAR(p->propagate);
    Py_CLEAR(p->serialize);
    return 0;
}

static void
Port_dealloc(Port *p)
{
    PyObject_GC_UnTrack(p);
    Port_clear(p);
    PyMem_Free(p->ring);
    Py_TYPE(p)->tp_free((PyObject *)p);
}

static PySequenceMethods Port_as_sequence = {
    .sq_length = Port_len,
};

static PyTypeObject PortType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_evcore.Port",
    .tp_basicsize = sizeof(Port),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "One egress direction's pump: queue, transmitter and link, owned in C.\n"
              "Calling the port sends a packet handle; len() and iter() give the queued\n"
              "handles, head of line first.  Made by EventCore.port().",
    .tp_vectorcall_offset = offsetof(Port, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_dealloc = (destructor)Port_dealloc,
    .tp_traverse = (traverseproc)Port_traverse,
    .tp_clear = (inquiry)Port_clear,
    .tp_free = PyObject_GC_Del,
    .tp_iter = Port_iter,
    .tp_methods = Port_methods,
    .tp_members = Port_members,
    .tp_getset = Port_getset,
    .tp_as_sequence = &Port_as_sequence,
};

static int
Demux_traverse(Demux *d, visitproc visit, void *arg)
{
    Py_VISIT(d->table);
    Py_VISIT(d->keys);
    Py_VISIT(d->fallback);
    return 0;
}

static int
Demux_clear(Demux *d)
{
    Py_CLEAR(d->table);
    Py_CLEAR(d->keys);
    Py_CLEAR(d->fallback);
    return 0;
}

static void
Demux_dealloc(Demux *d)
{
    PyObject_GC_UnTrack(d);
    Demux_clear(d);
    Py_TYPE(d)->tp_free((PyObject *)d);
}

static PyTypeObject DemuxType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_evcore.Demux",
    .tp_basicsize = sizeof(Demux),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A switch's or host's arrival demultiplexer; made by EventCore.demux().",
    .tp_dealloc = (destructor)Demux_dealloc,
    .tp_traverse = (traverseproc)Demux_traverse,
    .tp_clear = (inquiry)Demux_clear,
    .tp_free = PyObject_GC_Del,
};

/* run(sim, queue, until, limit, noop, freelist_max, evtype)
 *
 * The dispatch loop.  Mirrors Simulator.run()'s per-event pure-Python
 * loop exactly: same head-scan semantics (skip cancelled carcasses,
 * re-file deferred reschedules), same stop conditions after every
 * callback (_stop, then the event limit), same freelist recycling.  The
 * clock store is skipped when the timestamp repeats, which is observably
 * identical.  A port's serialization-finish and a demux's arrival run in
 * C; every other light event calls its Python callback.
 *
 * Returns the number of events processed.
 */
static PyObject *
EventCore_run(EventCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_SetString(
            PyExc_TypeError,
            "run expects (sim, queue, until, limit, noop, freelist_max, evtype)");
        return NULL;
    }
    PyObject *sim = args[0];
    PyObject *queue = args[1];
    PyObject *until_obj = args[2];
    long long limit = PyLong_AsLongLong(args[3]);
    PyObject *noop = args[4];
    Py_ssize_t freelist_max = PyLong_AsSsize_t(args[5]);
    if (PyErr_Occurred())
        return NULL;
    if (!PyType_Check(args[6])) {
        PyErr_SetString(PyExc_TypeError, "evtype must be the Event class");
        return NULL;
    }
    PyTypeObject *evtype = (PyTypeObject *)args[6];

    int have_until = (until_obj != Py_None);
    long long until = 0;
    if (have_until) {
        until = PyLong_AsLongLong(until_obj);
        if (until == -1 && PyErr_Occurred())
            return NULL;
    }

    Offsets off;
    off.now = slot_offset(Py_TYPE(sim), str_now);
    off.stop = slot_offset(Py_TYPE(sim), str_stop);
    off.live = slot_offset(Py_TYPE(queue), str_live);
    off.cancelled = slot_offset(evtype, str_cancelled);
    off.deadline = slot_offset(evtype, str_deadline);
    off.time = slot_offset(evtype, str_time);
    off.seq = slot_offset(evtype, str_seq);
    off.dseq = slot_offset(evtype, str_dseq);
    off.callback = slot_offset(evtype, str_callback);
    off.args = slot_offset(evtype, str_args);

    PyObject *heap = PyObject_GetAttr(queue, str_heap);
    PyObject *free_list = PyObject_GetAttr(queue, str_free);
    if (heap == NULL || free_list == NULL) {
        Py_XDECREF(heap);
        Py_XDECREF(free_list);
        return NULL;
    }

    long long processed = 0;
    long long last_now = -1;

    while (processed < limit) {
        /* -- establish the live head of the object heap ------------- */
        long long s_time = 0, s_seq = 0;
        int have_slow = 0;
        while (PyList_GET_SIZE(heap) > 0) {
            PyObject *entry = PyList_GET_ITEM(heap, 0);
            PyObject *ev = PyTuple_GET_ITEM(entry, 2);
            PyObject *owned;
            PyObject *flag = field_get(ev, off.cancelled, str_cancelled, &owned);
            if (flag == NULL)
                goto error;
            int cancelled = (flag == Py_True);
            Py_XDECREF(owned);
            if (cancelled) {
                PyObject *dead = obj_heap_pop(heap);
                if (dead == NULL)
                    goto error;
                if (PyList_GET_SIZE(free_list) < freelist_max) {
                    if (PyList_Append(free_list, ev) < 0) {
                        Py_DECREF(dead);
                        goto error;
                    }
                }
                Py_DECREF(dead);
                continue;
            }
            PyObject *dl_obj = field_get(ev, off.deadline, str_deadline, &owned);
            if (dl_obj == NULL)
                goto error;
            long long deadline = PyLong_AsLongLong(dl_obj);
            Py_XDECREF(owned);
            if (deadline == -1 && PyErr_Occurred())
                goto error;
            long long etime = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 0));
            if (etime == -1 && PyErr_Occurred())
                goto error;
            if (deadline > etime) {
                /* stale slot from a reschedule: re-file at the true
                 * deadline under the deferred sequence number */
                PyObject *dseq_owned;
                PyObject *dseq = field_get(ev, off.dseq, str_dseq, &dseq_owned);
                if (dseq == NULL)
                    goto error;
                if (dseq_owned == NULL)
                    Py_INCREF(dseq);  /* normalize: hold our own ref */
                PyObject *dl_new = PyLong_FromLongLong(deadline);
                if (dl_new == NULL) {
                    Py_DECREF(dseq);
                    goto error;
                }
                if (field_set(ev, off.time, str_time, dl_new) < 0 ||
                    field_set(ev, off.seq, str_seq, dseq) < 0) {
                    Py_DECREF(dl_new);
                    Py_DECREF(dseq);
                    goto error;
                }
                PyObject *refiled = PyTuple_Pack(3, dl_new, dseq, ev);
                Py_DECREF(dl_new);
                Py_DECREF(dseq);
                if (refiled == NULL)
                    goto error;
                if (obj_heap_replace(heap, refiled) < 0)
                    goto error;
                continue;
            }
            s_time = etime;
            s_seq = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
            if (s_seq == -1 && PyErr_Occurred())
                goto error;
            have_slow = 1;
            break;
        }

        /* -- pick the global minimum across both heaps --------------- */
        int take_light;
        long long ev_time;
        if (self->size > 0) {
            if (have_slow && (s_time < self->heap[0].t ||
                              (s_time == self->heap[0].t && s_seq < self->heap[0].s))) {
                take_light = 0;
                ev_time = s_time;
            } else {
                take_light = 1;
                ev_time = self->heap[0].t;
            }
        } else if (have_slow) {
            take_light = 0;
            ev_time = s_time;
        } else {
            break;  /* idle */
        }

        if (have_until && ev_time > until) {
            /* Head lies beyond the bound: advance the clock to `until`
             * and leave the event queued (pure loop does the same). */
            if (until != last_now) {
                PyObject *now = PyLong_FromLongLong(until);
                if (now == NULL || field_set(sim, off.now, str_now, now) < 0) {
                    Py_XDECREF(now);
                    goto error;
                }
                Py_DECREF(now);
            }
            break;
        }

        if (ev_time != last_now) {
            PyObject *now = PyLong_FromLongLong(ev_time);
            if (now == NULL || field_set(sim, off.now, str_now, now) < 0) {
                Py_XDECREF(now);
                goto error;
            }
            Py_DECREF(now);
            last_now = ev_time;
        }

        /* -- dispatch ------------------------------------------------ */
        if (take_light) {
            LEntry e;
            int rc;
            core_pop_entry(self, &e);
            if (e.kind == LK_FINISH) {
                rc = port_finish((Port *)e.cb, e.h, ev_time);
            } else if (e.kind == LK_ARRIVE) {
                rc = demux_deliver((Demux *)e.cb, e.h, ev_time);
            } else {
                PyObject *res = PyObject_CallOneArg(e.cb, e.arg);
                rc = res == NULL ? -1 : 0;
                Py_XDECREF(res);
            }
            Py_DECREF(e.cb);
            Py_XDECREF(e.arg);
            if (rc < 0)
                goto error;
        } else {
            PyObject *entry = obj_heap_pop(heap);
            if (entry == NULL)
                goto error;
            PyObject *ev = PyTuple_GET_ITEM(entry, 2);
            Py_INCREF(ev);
            Py_DECREF(entry);
            if (field_set(ev, off.deadline, str_deadline, long_minus_one) < 0) {
                Py_DECREF(ev);
                goto error;
            }
            /* queue._live -= 1 */
            PyObject *owned;
            PyObject *live = field_get(queue, off.live, str_live, &owned);
            if (live == NULL) {
                Py_DECREF(ev);
                goto error;
            }
            long long nlive = PyLong_AsLongLong(live);
            Py_XDECREF(owned);
            PyObject *nlive_obj = PyLong_FromLongLong(nlive - 1);
            if (nlive_obj == NULL ||
                field_set(queue, off.live, str_live, nlive_obj) < 0) {
                Py_XDECREF(nlive_obj);
                Py_DECREF(ev);
                goto error;
            }
            Py_DECREF(nlive_obj);
            PyObject *cb_owned, *args_owned;
            PyObject *cb = field_get(ev, off.callback, str_callback, &cb_owned);
            if (cb == NULL) {
                Py_DECREF(ev);
                goto error;
            }
            if (cb_owned == NULL)
                Py_INCREF(cb);  /* hold across the call */
            PyObject *cargs = field_get(ev, off.args, str_args, &args_owned);
            if (cargs == NULL) {
                Py_DECREF(cb);
                Py_DECREF(ev);
                goto error;
            }
            if (args_owned == NULL)
                Py_INCREF(cargs);
            PyObject *res = PyObject_Call(cb, cargs, NULL);
            Py_DECREF(cb);
            Py_DECREF(cargs);
            if (res == NULL) {
                Py_DECREF(ev);
                goto error;
            }
            Py_DECREF(res);
            if (PyList_GET_SIZE(free_list) < freelist_max) {
                if (field_set(ev, off.callback, str_callback, noop) < 0 ||
                    field_set(ev, off.args, str_args, empty_tuple) < 0 ||
                    PyList_Append(free_list, ev) < 0) {
                    Py_DECREF(ev);
                    goto error;
                }
            }
            Py_DECREF(ev);
        }
        processed += 1;

        /* -- stop request, checked after every event as the pure loop does */
        PyObject *stop_owned;
        PyObject *stop_flag = field_get(sim, off.stop, str_stop, &stop_owned);
        if (stop_flag == NULL)
            goto error;
        int stop = (stop_flag == Py_True);
        Py_XDECREF(stop_owned);
        if (stop)
            break;
    }

    Py_DECREF(heap);
    Py_DECREF(free_list);
    bump_processed(sim, processed);
    return PyLong_FromLongLong(processed);

error:
    Py_DECREF(heap);
    Py_DECREF(free_list);
    bump_processed(sim, processed);
    return NULL;
}

/* port(sim, flags, wire, pool_free): a new idle, empty Port on this core.
 * The caller fills in its queue and link parameters. */
static PyObject *
EventCore_port(EventCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "port expects (sim, flags, wire, pool_free)");
        return NULL;
    }
    if (!PyByteArray_Check(args[1]) || !PyList_Check(args[2])) {
        PyErr_SetString(PyExc_TypeError, "port needs the pool's flags bytearray and wire list");
        return NULL;
    }
    Port *p = PyObject_GC_New(Port, &PortType);
    if (p == NULL)
        return NULL;
    /* PyObject_GC_New leaves the body uninitialized. */
    memset((char *)p + sizeof(PyObject), 0, sizeof(Port) - sizeof(PyObject));
    p->vectorcall = Port_vectorcall;
    Py_INCREF(self);
    p->core = self;
    Py_INCREF(args[0]);
    p->sim = args[0];
    p->now_off = slot_offset(Py_TYPE(args[0]), str_now);
    Py_INCREF(args[1]);
    p->flags = args[1];
    Py_INCREF(args[2]);
    p->wire = args[2];
    Py_INCREF(args[3]);
    p->pool_free = args[3];
    PyObject_GC_Track(p);
    return (PyObject *)p;
}

/* demux(table, keys, fallback): a node's arrival demultiplexer. */
static PyObject *
EventCore_demux(EventCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3 || !PyDict_Check(args[0]) || !PyList_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "demux expects (table: dict, keys: list, fallback)");
        return NULL;
    }
    Demux *d = PyObject_GC_New(Demux, &DemuxType);
    if (d == NULL)
        return NULL;
    Py_INCREF(args[0]);
    d->table = args[0];
    Py_INCREF(args[1]);
    d->keys = args[1];
    Py_INCREF(args[2]);
    d->fallback = args[2];
    PyObject_GC_Track(d);
    return (PyObject *)d;
}

static PyMethodDef EventCore_methods[] = {
    {"take_seq", (PyCFunction)EventCore_take_seq, METH_NOARGS,
     "Consume and return the next global sequence number."},
    {"push", (PyCFunction)(void (*)(void))EventCore_push, METH_FASTCALL,
     "push(time, callback, arg): schedule a light event at absolute time."},
    {"peek_time", (PyCFunction)EventCore_peek_time, METH_NOARGS,
     "Earliest pending light-event time, or None."},
    {"clear", (PyCFunction)EventCore_clear, METH_NOARGS,
     "Drop all pending light events."},
    {"run", (PyCFunction)(void (*)(void))EventCore_run, METH_FASTCALL,
     "Dispatch events until idle or a stop condition; returns count."},
    {"port", (PyCFunction)(void (*)(void))EventCore_port, METH_FASTCALL,
     "port(sim, flags, wire, pool_free): a native output port on this core."},
    {"demux", (PyCFunction)(void (*)(void))EventCore_demux, METH_FASTCALL,
     "demux(table, keys, fallback): a node's native arrival demultiplexer."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods EventCore_as_sequence = {
    .sq_length = EventCore_len,
};

static PyTypeObject EventCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_evcore.EventCore",
    .tp_basicsize = sizeof(EventCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native light-event heap, fused dispatch loop and port factory.",
    .tp_new = EventCore_new,
    .tp_dealloc = (destructor)EventCore_dealloc,
    .tp_traverse = (traverseproc)EventCore_traverse,
    .tp_clear = (inquiry)EventCore_tp_clear,
    .tp_free = PyObject_GC_Del,
    .tp_methods = EventCore_methods,
    .tp_as_sequence = &EventCore_as_sequence,
};

static struct PyModuleDef evcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_evcore",
    .m_doc = "Native event core for repro.sim (see repro/sim/_native.py).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__evcore(void)
{
#define INTERN(var, s)                         \
    do {                                       \
        var = PyUnicode_InternFromString(s);   \
        if (var == NULL)                       \
            return NULL;                       \
    } while (0)
    INTERN(str_now, "now");
    INTERN(str_stop, "_stop");
    INTERN(str_heap, "_heap");
    INTERN(str_free, "_free");
    INTERN(str_live, "_live");
    INTERN(str_cancelled, "cancelled");
    INTERN(str_deadline, "deadline");
    INTERN(str_time, "time");
    INTERN(str_seq, "seq");
    INTERN(str_dseq, "_dseq");
    INTERN(str_callback, "callback");
    INTERN(str_args, "args");
    INTERN(str_processed, "events_processed");
#undef INTERN
    long_minus_one = PyLong_FromLong(-1);
    empty_tuple = PyTuple_New(0);
    if (long_minus_one == NULL || empty_tuple == NULL)
        return NULL;
    if (PyType_Ready(&EventCoreType) < 0 || PyType_Ready(&PortType) < 0 ||
        PyType_Ready(&DemuxType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&evcore_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&EventCoreType);
    if (PyModule_AddObject(m, "EventCore", (PyObject *)&EventCoreType) < 0) {
        Py_DECREF(&EventCoreType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
