"""Run one `immanants` CLI command with spans around each layer's public functions.

Usage: python bench/traced_cli.py SPAN_FILE ARG...

Behaves like `python -m immanants.cli ARG...` (same stdout, stderr and exit
code), and also rebinds the functions listed in SPANS, in every module of the
package that imported them, to wrappers that record a span: name, start, end
and parent.  A few very hot functions only bump a counter.  Spans stay in
memory and are written to SPAN_FILE once, when the command ends: one JSON
header line (the operation, the span names, counters), then the span arrays
in the order of ARRAYS (native byte order).  One process runs one operation,
so every span in the file belongs to the operation in the header.
`run.py` derives self times and counters from that file.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# Public functions that get a span, by module.
SPANS = {
    "tableaux": ("kostka", "kostka_matrix", "inverse_kostka_matrix", "lr_coefficient"),
    "permutations": ("conjugacy_classes",),
    "immanant_characters": (
        "immanant_character",
        "stanley_stembridge_character",
        "hook_decomposition",
    ),
    "jacobitrudi": ("immanant",),
    "characters": (
        "irreducible_character",
        "monomial_character",
        "induction_product",
        "h_positive_decomposition",
        "inner_product",
    ),
    "symfunc": ("convert", "skew_schur"),
    "reductions": ("immanant_character_from_components", "induce_up"),
    "verify": ("verify_hook_decomposition",),
}

# (array attribute, typecode) in file order.
ARRAYS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.kostka_keys: set = set()
        self.materialized: set = set()

    def _enter(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def spanned(self, name: str, fn, after=None):
        name_id = self._name_id(name)
        enter, start, end, stack = self._enter, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            i = enter(name_id)
            start[i] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def spanned_generator(self, name: str, fn):
        """One span per resume of the generator, so work between yields is attributed."""
        name_id = self._name_id(name)
        enter, start, end, stack = self._enter, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = enter(name_id)
                start[i] = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end[i] = perf_counter()
                    stack.pop()
                yield item

        return traced

    def counted(self, counter: str, fn):
        counters = self.counters

        def traced(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return traced

    @staticmethod
    def observed(fn, after):
        """Pass fn's arguments and result to `after`, without a span."""

        def traced(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(args, out)
            return out

        return traced

    def _after_kostka(self, args, value) -> None:
        theta, content = args
        if value == 0:
            self.counters["tableaux.kostka.zeros"] += 1
        self.kostka_keys.add((tuple(theta), tuple(sorted(x for x in content if x))))

    def _after_symmetric_group(self, args, perms) -> None:
        if args[0] not in self.materialized:  # later calls are cache hits
            self.materialized.add(args[0])
            self.counters["permutations.perms_materialized"] += len(perms)

    def _after_suite(self, suite: str):
        def after(args, report) -> None:
            self.counters[f"verify.suite.{suite}.instances"] += report.instances

        return after

    def install(self, package) -> None:
        """Rebind each listed function wherever the package's modules hold it."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]

        def rebind(original, wrapper) -> None:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        def module(name):
            return sys.modules[f"{package}.{name}"]

        for mod_name, fn_names in SPANS.items():
            for fn_name in fn_names:
                original = getattr(module(mod_name), fn_name)
                after = self._after_kostka if fn_name == "kostka" else None
                rebind(original, self.spanned(f"{mod_name}.{fn_name}", original, after))

        verify = module("verify")
        original = verify.scan_records
        rebind(original, self.spanned_generator("verify.scan_records", original))
        for suite, original in list(verify.SUITES.items()):
            wrapper = self.spanned(f"verify.suite.{suite}", original, self._after_suite(suite))
            verify.SUITES[suite] = wrapper
            rebind(original, wrapper)

        # Counters only: these run once per permutation, too often for a span each.
        ic = module("immanant_characters")
        rebind(ic.content_vector, self.counted("immanant_characters.perms_visited", ic.content_vector))
        jt = module("jacobitrudi")
        jt.cycle_type = self.counted("jacobitrudi.immanant.leaves", jt.cycle_type)
        original = module("permutations").symmetric_group
        rebind(original, self.observed(original, self._after_symmetric_group))

    def write(self, path: str, op: list[str], import_s: float) -> None:
        counters = dict(self.counters)
        counters["tableaux.kostka.distinct"] = len(self.kostka_keys)
        header = {
            "op": op,
            "names": self.names,
            "count": len(self.name),
            "import_s": import_s,
            "counters": counters,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for attr, _ in ARRAYS:
                getattr(self, attr).tofile(f)


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import immanants.cli  # imports every layer

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install("immanants")
    try:
        return tracer.spanned("cli.main", immanants.cli.main)(argv)
    finally:
        sys.stdout.flush()
        tracer.write(span_file, argv, import_s)


if __name__ == "__main__":
    sys.exit(main())
