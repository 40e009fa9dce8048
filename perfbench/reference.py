"""Independent reference for every output the benchmark checks.

Written from the rule definitions over plain int masks: a subset of the
alternatives ``0 .. n-1`` is an int whose bit ``i`` is set when alternative
``i`` belongs to it, and a state is given by its support map
``{mask: total support}`` (positive values only).  Nothing here imports
``critrank``; the benchmark computes expected outputs with this module from
the inputs it generated, so a wrong answer from the program cannot also be
the expected one.

Definitions used (all subsets nonempty, ``2**n - 1`` of them):

* support classes: subsets grouped by equal support, strongest first; the
  subsets with support 0 form one last class, the residual, when any exist;
* e-score of x: the largest k such that x lies in every subset of the top
  k classes (0 when x misses a subset of the strongest class);
* class counts of x: per class, how many of its subsets contain x;
* a ranking is an ordered partition of the alternatives, best class first.
"""


def bits(mask):
    """Indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def support_classes(support):
    """[(value, [masks])] for the explicit classes, strongest first."""
    by_value = {}
    for mask, value in support.items():
        if value > 0:
            by_value.setdefault(value, []).append(mask)
    return [(v, by_value[v]) for v in sorted(by_value, reverse=True)]


def residual_size(n, support):
    """Number of nonempty subsets with support 0."""
    return (1 << n) - 1 - sum(1 for v in support.values() if v > 0)


def depth(n, support):
    """Number of support classes, the residual included when nonempty."""
    return len(support_classes(support)) + (1 if residual_size(n, support) else 0)


def containing_counts(n, masks):
    """Per alternative, how many of ``masks`` contain it."""
    counts = [0] * n
    for mask in masks:
        for i in bits(mask):
            counts[i] += 1
    return counts


def class_counts(n, support):
    """Per alternative, the membership count in each class, residual last.

    Each alternative lies in ``2**(n-1)`` nonempty subsets in all, so its
    residual count is that minus its explicit count.
    """
    classes = support_classes(support)
    rows = [[0] * len(classes) for _ in range(n)]
    for col, (_value, masks) in enumerate(classes):
        for i, count in enumerate(containing_counts(n, masks)):
            rows[i][col] = count
    if residual_size(n, support):
        half = 1 << (n - 1)
        for row in rows:
            row.append(half - sum(row))
    return [tuple(r) for r in rows]


def e_scores(n, support):
    """Excellence score of every alternative."""
    classes = support_classes(support)
    e = [0] * n
    inter = (1 << n) - 1
    level = 0
    for _value, masks in classes:
        for mask in masks:
            inter &= mask
        if not inter:
            return e
        level += 1
        for x in bits(inter):
            e[x] = level
    if residual_size(n, support):
        # x lies in every residual subset exactly when all 2**(n-1) - 1
        # nonempty subsets missing x are explicit.
        explicit = [m for _v, masks in classes for m in masks]
        inside = containing_counts(n, explicit)
        missing_all = (1 << (n - 1)) - 1
        inter &= sum(1 << x for x in range(n) if len(explicit) - inside[x] == missing_all)
        level += 1
        for x in bits(inter):
            e[x] = level
    return e


def support_totals(n, support):
    """Per alternative, the summed support of the subsets containing it."""
    totals = [0] * n
    for mask, value in support.items():
        for i in bits(mask):
            totals[i] += value
    return totals


def partition(scores):
    """Alternatives grouped by equal score, highest score first."""
    groups = {}
    for x, score in enumerate(scores):
        groups.setdefault(score, []).append(x)
    return [groups[v] for v in sorted(groups, reverse=True)]


def _cumulative(row):
    out, total = [], 0
    for v in row:
        total += v
        out.append(total)
    return tuple(out)


def rank(rule, n, support, order=None):
    """The ranking ``rule`` gives, as a list of classes of indices.

    ``order`` is the exogenous strict order of ``iis-tb-order``, best first;
    it defaults to the index order.
    """
    if rule == "indifferent":
        return [list(range(n))]
    if rule == "support":
        return partition(support_totals(n, support))
    if rule == "lexcel":
        return partition(class_counts(n, support))
    e = e_scores(n, support)
    ceiling = depth(n, support) - 1
    if rule == "iis":
        return partition(e)
    if rule == "f1":
        bands = [[x for x in range(n) if e[x] >= 2],
                 [x for x in range(n) if e[x] == 1],
                 [x for x in range(n) if e[x] == 0]]
        return [b for b in bands if b]
    if rule == "f2":
        bands = [[x for x in range(n) if e[x] == ceiling],
                 [x for x in range(n) if e[x] != ceiling]]
        return [b for b in bands if b]
    if rule == "iis-tb-order":
        position = {x: i for i, x in enumerate(order if order is not None else range(n))}
        out = []
        for members in partition(e):
            if 0 < e[members[0]] < ceiling and len(members) > 1:
                out.extend([x] for x in sorted(members, key=position.__getitem__))
            else:
                out.append(members)
        return out
    if rule == "iis-tb-tau":
        taus = [_cumulative(row) for row in class_counts(n, support)]
        out = []
        for members in partition(e):
            if e[members[0]] == 0 or len(members) == 1:
                out.append(members)
                continue
            by_tau = {}
            for x in members:
                by_tau.setdefault(taus[x], []).append(x)
            out.extend(by_tau[t] for t in sorted(by_tau, reverse=True))
        return out
    raise ValueError(f"unknown rule {rule!r}")


RULES = ("iis", "support", "lexcel", "iis-tb-order", "iis-tb-tau",
         "f1", "f2", "indifferent")


# ---------------------------------------------------------------------------
# Tables and profiles: criteria are indices 0 .. m-1, ``satisfiers[c]`` is the
# mask of alternatives satisfying c, and each voter order lists criteria
# best first.


def criterion_scores(m, orders):
    """Positional score per criterion: m points for a voter's top, down to 1."""
    scores = [0] * m
    for order in orders:
        for position, c in enumerate(order):
            scores[c] += m - position
    return scores


def choose_n1(n, satisfiers, orders):
    """Cascade choice: intersect satisfier sets down the criterion score
    classes and keep the last nonempty stage (everyone if the first dies)."""
    chosen = (1 << n) - 1
    current = chosen
    for members in partition(criterion_scores(len(satisfiers), orders)):
        for c in members:
            current &= satisfiers[c]
        if not current:
            break
        chosen = current
    return chosen


def choose_n2(n, satisfiers, orders):
    """Score-sum choice: alternatives with the largest summed score of the
    criteria they satisfy."""
    scores = criterion_scores(len(satisfiers), orders)
    totals = [0] * n
    for c, mask in enumerate(satisfiers):
        for i in bits(mask):
            totals[i] += scores[c]
    best = max(totals)
    return sum(1 << i for i in range(n) if totals[i] == best)


def induced_entries(satisfiers, orders):
    """{(mask_c, mask_d): count}: voters ranking c at least as high as d.

    Every voter holds the diagonal; pairs no voter holds are left out.
    """
    m = len(satisfiers)
    wins = [[0] * m for _ in range(m)]
    for order in orders:
        for i, c in enumerate(order):
            row = wins[c]
            for d in order[i + 1:]:
                row[d] += 1
    entries = {}
    for c in range(m):
        for d in range(m):
            count = len(orders) if c == d else wins[c][d]
            if count:
                entries[(satisfiers[c], satisfiers[d])] = count
    return entries


def support_of_entries(entries):
    """Row sums of an entry map: total support per first subset."""
    support = {}
    for (s, _t), count in entries.items():
        support[s] = support.get(s, 0) + count
    return support


# ---------------------------------------------------------------------------
# Text as the command line prints it


def subset_text(mask, names):
    return "{" + ",".join(names[i] for i in bits(mask)) + "}"


def ranking_text(classes, names):
    return " > ".join("{" + ",".join(names[x] for x in sorted(c)) + "}" for c in classes)


def opinion_file_text(names, entries, with_supports):
    """An opinion file: header, optional support comments, sorted opinions."""
    lines = ["alternatives: " + " ".join(names)]
    if with_supports:
        for mask, value in sorted(support_of_entries(entries).items()):
            lines.append(f"# support {subset_text(mask, names)} = {value}")
    for (s, t), count in sorted(entries.items()):
        lines.append(f"opinion {subset_text(s, names)} >= {subset_text(t, names)} : {count}")
    return "\n".join(lines) + "\n"
