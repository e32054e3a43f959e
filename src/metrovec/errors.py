"""Exception types shared across the package, and the bound check both
configs share.

Every error raised by library code derives from PipelineError; the CLI maps
``exit_code`` onto the process status (2 usage, 3 data validation,
4 stage order / integrity).
"""

import math


class PipelineError(Exception):
    exit_code = 1


class UsageError(PipelineError):
    exit_code = 2


class ValidationError(PipelineError):
    exit_code = 3


class FormatError(ValidationError):
    """Malformed input file (bad magic, wrong column count, unparsable line)."""


class NotFoundError(ValidationError):
    """An entity id was looked up but is not present."""


class StageOrderError(PipelineError):
    exit_code = 4


class IntegrityError(StageOrderError):
    """A checkpoint or ingested file no longer matches its manifest hash."""


def check_bounds(config, least: dict, above: tuple = ()) -> None:
    """Refuse a dataclass ``config`` with a float field that is not finite,
    then one with a field of ``least`` below its bound, or at its bound for a
    field named in ``above``."""
    for name, value in vars(config).items():
        # NaN passes every bound check, and inf trains to the end.
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    for name, bound in least.items():
        value = getattr(config, name)
        if value < bound or name in above and value == bound:
            raise ValidationError(f"{name} must be {'>' if name in above else '>='} {bound}, got {value}")
