"""Answer checks that do not trust the search engine.

Every answer the benchmark times goes through :func:`answer_problems`:

* a found regex is parsed back from its printed form, translated to a
  Python :mod:`re` pattern and run on every example, so acceptance is
  decided by the standard library's matcher, not by the engine's
  characteristic sequences;
* its reported cost must equal the cost function applied to the parsed
  regex;
* the answer (status, regex, cost, candidate counts) must equal the one
  a fresh in-process :class:`repro.Session` gives for the same request,
  which covers both "the same seed gives the same answer" and "the
  HTTP and pool paths are bit-identical to the in-process path".
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro import CostFunction, parse
from repro.regex.ast import Char, Concat, Empty, Epsilon, Question, Star, Union

#: Fields of ``SynthesisResult.to_dict()`` that must repeat exactly on
#: every path.  Timings are left out on purpose.
ANSWER_FIELDS = (
    "status",
    "regex",
    "cost",
    "generated",
    "unique_cs",
    "levels_built",
    "max_cost",
    "cost_function",
    "allowed_error",
)


def to_python_pattern(node) -> str:
    """The Python ``re`` pattern of a parsed regex."""
    if isinstance(node, Empty):
        return "(?!)"
    if isinstance(node, Epsilon):
        return ""
    if isinstance(node, Char):
        return re.escape(node.symbol)
    if isinstance(node, Concat):
        return "(?:%s)(?:%s)" % (
            to_python_pattern(node.left),
            to_python_pattern(node.right),
        )
    if isinstance(node, Union):
        return "(?:%s|%s)" % (
            to_python_pattern(node.left),
            to_python_pattern(node.right),
        )
    if isinstance(node, Star):
        return "(?:%s)*" % to_python_pattern(node.inner)
    if isinstance(node, Question):
        return "(?:%s)?" % to_python_pattern(node.inner)
    raise TypeError("unknown regex node %r" % (node,))


def answer_fields(answer: Dict[str, object]) -> Dict[str, object]:
    """The path-independent part of a result dict."""
    fields = {key: answer.get(key) for key in ANSWER_FIELDS}
    fields["cost_function"] = list(fields["cost_function"] or [])
    return fields


def answer_problems(
    spec,
    answer: Dict[str, object],
    reference: Optional[Dict[str, object]],
) -> List[str]:
    """Everything wrong with one answer (empty when it is correct).

    ``answer`` and ``reference`` are ``SynthesisResult.to_dict()``
    shapes; ``reference`` is the in-process answer to the same request.
    """
    problems: List[str] = []
    if answer.get("status") == "success":
        try:
            parsed = parse(str(answer["regex"]))
        except ValueError as exc:
            return ["unparsable regex %r: %s" % (answer.get("regex"), exc)]
        pattern = re.compile(to_python_pattern(parsed))
        misses = sum(
            1 for word in spec.positive if pattern.fullmatch(word) is None
        ) + sum(1 for word in spec.negative if pattern.fullmatch(word) is not None)
        allowed = int(float(answer.get("allowed_error") or 0.0) * spec.n_examples)
        if misses > allowed:
            problems.append(
                "%r misclassifies %d examples (allowed %d)"
                % (answer["regex"], misses, allowed)
            )
        cost_fn = CostFunction.from_tuple(tuple(answer["cost_function"]))
        if cost_fn.cost(parsed) != answer.get("cost"):
            problems.append(
                "%r reports cost %r, recomputed %d"
                % (answer["regex"], answer.get("cost"), cost_fn.cost(parsed))
            )
    elif answer.get("status") != "budget":
        problems.append("unexpected status %r" % answer.get("status"))
    if reference is not None and answer_fields(answer) != answer_fields(reference):
        problems.append(
            "differs from the in-process answer: %r != %r"
            % (answer_fields(answer), answer_fields(reference))
        )
    return problems
