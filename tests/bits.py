"""The one bit-rendering helper the tests compare runs with."""
import dataclasses


def bits(obj, skip=("time_ms",)):
    """Every dataclass field but `skip`, recursively, with floats as exact hex."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, tuple):
        return [bits(x, skip) for x in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: bits(getattr(obj, f.name), skip) for f in dataclasses.fields(obj) if f.name not in skip}
    return obj
