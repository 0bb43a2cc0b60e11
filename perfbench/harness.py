"""Pure helpers of the benchmark: statistics, span arithmetic, output checks.

Everything here is free of processes and clocks so perfbench/tests can pin
it down exactly; run.py does the driving.
"""

import json
import zlib

# One analyst session on serve-mixed, in order: three identify variants, the
# downstream ops, then a repeat of the first identify.
SESSION = (
    ("identify", {}),
    ("identify", {"depth": 3}),
    ("identify", {"max_assign": 1}),
    ("lift", {}),
    ("evaluate", {}),
    ("lint", {}),
    ("identify", {}),
)
# A revisit sends one of the session's kinds; the repeat is not a kind.
REVISIT_KINDS = len(SESSION) - 1
# Single-request revisits after each session: 3 of every 10 requests.
REVISITS_PER_SESSION = 3

MASK64 = (1 << 64) - 1


def splitmix64(state):
    """One step of SplitMix64: (next state, output).  Used instead of
    `random` so the script cannot change with the Python version."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def request_script(seed, designs):
    """The serve-mixed script over `designs` designs, as units
    [design, kind]; kind -1 is a full session.

    Each design in order gets a session, then REVISITS_PER_SESSION revisits,
    each to a design drawn uniformly from those opened so far and sending a
    drawn kind.  Later revisits reach further back, so some land after their
    artifacts were evicted.  Only the targets and kinds are seeded, so the
    share of revisits is the same for every seed.
    """
    state, units = seed & MASK64, []
    for design in range(designs):
        units.append([design, -1])
        for _ in range(REVISITS_PER_SESSION):
            state, target = splitmix64(state)
            state, kind = splitmix64(state)
            units.append([target % (design + 1), kind % REVISIT_KINDS])
    return units


# Fewest samples for which the sample with ten beyond it is at least p90.
TAIL_MIN_SAMPLES = 100


def tail(values):
    """The highest percentile with at least ten samples beyond it, but
    never below p90.

    Returns (value, percentile, samples).  Of n sorted samples, the one with
    exactly ten above it sits at percentile 100 * (n - 10) / n.  Below 100
    samples that percentile is under 90 (with 11 samples it is the minimum),
    which is no tail, so p90 is reported instead, interpolated linearly
    between the two nearest ranks.  At 100 samples the two rules nearly
    agree.  The maximum is not used: of a few samples it is one sample, and
    one slow run of the host sets it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        low, tenths = divmod(9 * (n - 1), 10)
        high = min(low + 1, n - 1)
        value = ordered[low] + (ordered[high] - ordered[low]) * tenths / 10
        return value, 90.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def self_times(spans):
    """Per span: its duration minus the part of it its children cover.

    `spans` are dicts with start_ns, end_ns and parent (index or -1).
    Children may overlap each other (concurrent work), so their union, not
    their sum, is subtracted.
    """
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span["start_ns"]
        for child in sorted(children[index], key=lambda c: spans[c]["start_ns"]):
            start = max(spans[child]["start_ns"], cursor)
            end = min(spans[child]["end_ns"], span["end_ns"])
            if end > start:
                covered += end - start
                cursor = end
        result.append(span["end_ns"] - span["start_ns"] - covered)
    return result


def repetitions(spans, root):
    """Seconds per span name, summed over entries, for each repetition of
    the `root` span: the k-th `root` span of an entry, and every span under
    it, belong to repetition k.  Returns a list of {name: seconds}.

    Spans are listed in the order they opened, so a parent comes before its
    children.
    """
    repetition, seen, reps = {}, {}, []
    for index, span in enumerate(spans):
        if span["name"] == root:
            k = seen.get(span["entry"], 0)
            seen[span["entry"]] = k + 1
        elif span["parent"] in repetition:
            k = repetition[span["parent"]]
        else:
            continue
        repetition[index] = k
        if k == len(reps):
            reps.append({})
        seconds = (span["end_ns"] - span["start_ns"]) / 1e9
        reps[k][span["name"]] = reps[k].get(span["name"], 0.0) + seconds
    return reps


def span_table(spans):
    """name -> {count, total_s, self_s, cpu_s}, summed over spans."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
        row["count"] += 1
        row["total_s"] += (span["end_ns"] - span["start_ns"]) / 1e9
        row["self_s"] += own / 1e9
        row["cpu_s"] += span["cpu_ns"] / 1e9
    return table


def body_digest(response_line):
    """Digest of a serve response line without its id member (ids differ
    between repeats of the same request)."""
    body = response_line.split(b",", 1)[1]
    return f"{zlib.crc32(body):x}-{len(body)}"


def response_id(response_line):
    """The id of a serve response line; the daemon and the in-process
    Executor both render it as the first member."""
    return json.loads(response_line.split(b",", 1)[0] + b"}")["id"]


def digest(data):
    return f"{zlib.crc32(data):x}-{len(data)}"


def multibit_words(identify_doc):
    """Identified words of at least two bits, as sets of net names."""
    return [set(word["bits"]) for word in identify_doc["words"]
            if len(word["bits"]) >= 2]


def empty_result_error(identify_doc, planted):
    """The output check an empty result cannot pass: a design with planted
    multi-bit words must yield at least one multi-bit word.  Returns an error
    string, or None."""
    if planted and not multibit_words(identify_doc):
        return (f"no multi-bit words identified, {len(planted)} planted "
                f"(empty or unparsed input?)")
    return None


def words_fully_found(identify_doc, planted):
    """How many planted words one identified word covers completely."""
    words = multibit_words(identify_doc)
    return sum(1 for bits in planted
               if any(set(bits) <= word for word in words))


class Ledger:
    """Counts operations and failures, and enforces that repeats of the same
    operation on the same input produce the same bytes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._digests = {}

    def attempt(self, error=None):
        self.attempted += 1
        if error is not None:
            self.fail(error)

    def fail(self, error):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(error)

    def same_bytes(self, key, value):
        """Returns an error if `key` was seen before with another digest."""
        seen = self._digests.setdefault(key, value)
        if seen != value:
            return f"output of {key} differs between repeats"
        return None


def expand_units(units):
    """Manifest units -> per unit, the list of (design, op, options)."""
    expanded = []
    for design, kind in units:
        kinds = range(len(SESSION)) if kind < 0 else (kind,)
        expanded.append([(design,) + SESSION[k] for k in kinds])
    return expanded


def request_line(request_id, design_path, op, options):
    request = {"id": request_id, "op": op, "design": design_path}
    if options:
        request["options"] = options
    return json.dumps(request, separators=(",", ":"), sort_keys=True)
