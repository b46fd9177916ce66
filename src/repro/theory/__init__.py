"""Theory of Logical Merge (Section III).

Executable versions of the paper's formal machinery:

* :mod:`repro.theory.equivalence` — prefix equivalence and the open/close
  compatibility criterion of Example 4 (``O[j]`` is compatible with
  ``I[k]`` iff ``O[j] subset-of I[k]``);
* :mod:`repro.theory.compatibility` — the R3 conditions **C1-C3** of
  Section III-D and the R4 count-based conformance rule, implemented as
  checkers that report every violation.

Tests use these as oracles: after every element an LMerge algorithm emits,
the output prefix must remain compatible with the input prefixes.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.theory.equivalence import (
        equivalent_prefixes,
        open_close_compatible,
        prefix_equivalent_open_close,
    )
    from repro.theory.compatibility import (
        CompatibilityViolation,
        check_r3_compatibility,
        check_r4_conformance,
        is_r3_compatible,
    )
else:
    __getattr__, __dir__, __all__ = lazy_exports(__name__, __file__)
