"""PyYAML's case loader and dumper, imported only when ``caseio`` uses them."""

import re
from itertools import accumulate

import yaml

MAX_DEPTH = 100         # yaml.load's composer recurses per level (C stack)
# libyaml's parser and emitter when PyYAML was built with them; each pairs
# the C code with the same resolver and safe constructor or representer, so
# documents load to equal objects and dump to the same text.
SafeDumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class CaseLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, reading YAML 1.2 scientific notation as floats.

    YAML 1.1 floats need a decimal point and a signed exponent, so ``1e-3``
    and ``1.0e308`` would load as strings.  The extra resolver comes after
    the 1.1 ones in the table, so it only claims scalars that resolved to
    ``str`` before, and ``dump_case`` output loads as it always did.
    """


CaseLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_document(text: str):
    """``yaml.load(text, Loader=CaseLoader)``, which reads every text the
    column reader declines and raises every parse error, but is not given
    nesting over MAX_DEPTH."""
    depths = accumulate(isinstance(event, yaml.CollectionStartEvent)
                        - isinstance(event, yaml.CollectionEndEvent)
                        for event in yaml.parse(text, Loader=CaseLoader))
    try:
        deep = any(depth > MAX_DEPTH for depth in depths)
    except yaml.YAMLError:          # yaml.load reports it
        deep = False
    if deep:
        raise yaml.YAMLError(f"collections nested deeper than {MAX_DEPTH}")
    return yaml.load(text, Loader=CaseLoader)
