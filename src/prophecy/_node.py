"""The construction rule of both IRs' expression nodes, ``core_lang``'s and ``second_stage``'s."""

from dataclasses import dataclass, fields


def frozen_node(cls: type) -> type:
    """``cls`` as a frozen, slotted dataclass whose ``__init__`` takes exactly its fields (none
    with a default) and writes each through its slot's descriptor, which the frozen
    ``__setattr__`` does not intercept, then runs ``__post_init__`` if the class has one."""
    node = dataclass(frozen=True, slots=True)(cls)
    for method in node.__setattr__, node.__delattr__:  # made for ``cls``, which slots replaced
        for cell in method.__closure__:
            if cell.cell_contents is cls:
                cell.cell_contents = node
    names = [f.name for f in fields(node)]
    source = "\n".join([f"def make({', '.join(f'_set_{name}' for name in names)}):",
                        f" def __init__({', '.join(['self', *names])}):",
                        *[f"  _set_{name}(self, {name})" for name in names],
                        *(["  self.__post_init__()"] if hasattr(node, "__post_init__") else []),
                        "  pass", " return __init__"])
    exec(source, namespace := {"__name__": node.__module__})
    # the setters are cells of the closure, not defaults, so the signature is just the fields
    node.__init__ = namespace["make"](*[node.__dict__[name].__set__ for name in names])
    return node
