"""Readable pytest ids for measure specs."""


def describe(mu) -> str:
    if mu.kind == "law":
        extra = ""
        if mu.scale != 1 or mu.offset != 0:
            extra = f" (pushforward x -> {mu.scale}*x + {mu.offset})"
        return f"law {mu.law}{tuple(mu.params)}{extra}"
    if mu.kind == "atomic":
        return f"atomic with {len(mu.atoms)} atoms"
    if mu.kind == "grid":
        return f"grid on [{mu.xs[0]}, {mu.xs[-1]}] ({len(mu.xs)} points)"
    return f"{mu.kind} to order {mu.seq.order}"
