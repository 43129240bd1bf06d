"""Outside-in tracing of the tpt package.

The tracer wraps public functions of each tpt module from outside,
patching every name where its caller looks it up, and records one span
per call: (name, start, end, parent span, op id).  Spans stay in memory
until the run ends.  Tape records and Tensor constructions are counted,
not spanned.  Nothing under src/ knows about the tracer.
"""

import functools
import json
from time import perf_counter

# Op id given to spans recorded outside any op: set-up repetitions use
# -1, -2, ..., timed ops use 0, 1, ...
SETUP_OP = -1


def span_targets():
    """(owner, attribute, span name) for every wrapped call site."""
    from tpt import augment, autodiff, bongard, data, episode, model, optim
    return [
        # module attributes looked up at call time (mdl.encode_image, ...)
        (model, "encode_image", "model.encode_image"),
        (model, "encode_text", "model.encode_text"),
        (model, "load_weights", "model.load_weights"),
        (data, "generate", "data.generate"),
        (data, "apply_shift", "data.apply_shift"),
        (augment, "make_view", "augment.make_view"),
        (episode, "tpt_classify", "episode.tpt_classify"),
        (episode, "select_and_average", "episode.select_and_average"),
        (bongard, "tpt_reason", "bongard.tpt_reason"),
        (bongard, "generate_tasks", "bongard.generate_tasks"),
        # names bound by `from ... import` in their callers' modules
        (episode, "generate_views", "augment.generate_views"),
        (episode, "assemble", "prompt.assemble"),
        (bongard, "assemble", "prompt.assemble"),
        # methods, looked up on the class
        (autodiff.Tape, "backward", "autodiff.Tape.backward"),
        (optim.AdamW, "step", "optim.AdamW.step"),
    ]


def count_targets():
    """(owner, attribute, counter name) for counted-only calls."""
    from tpt import autodiff
    return [
        (autodiff.Tape, "record", "tape_records"),
        (autodiff.Tensor, "__init__", "tensors"),
    ]


class Patches:
    """Attribute replacements that undo in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counts = {"tape_records": 0, "tensors": 0}
        self.op = SETUP_OP
        self._stack = []
        self._patches = Patches()

    @property
    def active(self):
        return bool(self._patches._saved)

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        if self.active:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in span_targets():
            self._patches.replace(owner, attr, self._span(name, getattr(owner, attr)))
        for owner, attr, key in count_targets():
            self._patches.replace(owner, attr, self._count(key, getattr(owner, attr)))

    def uninstall(self):
        self._patches.undo()

    def reset_counts(self):
        for key in self.counts:
            self.counts[key] = 0

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def per_op(self, n_ops):
        """{name: (total ms, self ms, calls)} per op, over spans of ops >= 0."""
        selfs = self.self_times()
        out = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op < 0:
                continue
            total, self_ms, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (total + (end - start) * 1e3, self_ms + selfs[i] * 1e3,
                         calls + 1)
        return {name: (t / n_ops, s / n_ops, c / n_ops)
                for name, (t, s, c) in out.items()}

    def root_ms(self):
        """{op: milliseconds covered by the op's parentless spans}."""
        out = {}
        for _, start, end, parent, op in self.spans:
            if parent is None:
                out[op] = out.get(op, 0.0) + (end - start) * 1e3
        return out

    def setup_ms(self, name):
        """Per set-up repetition, milliseconds spent in `name`."""
        reps = {}
        for n, start, end, _, op in self.spans:
            if op < 0:
                reps.setdefault(op, 0.0)
                if n == name:
                    reps[op] += (end - start) * 1e3
        return [reps[k] for k in sorted(reps, reverse=True)]

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")
