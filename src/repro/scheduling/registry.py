"""Scheduler registry — pluggable lookup of scheduling methods by name.

The experiment harness refers to scheduling methods by short string names
("fps-offline", "gpiocp", "static", "ga", ...).  Historically the runner
hard-coded the mapping from those names to scheduler classes; the registry
inverts the dependency: every scheduler module registers its own factory with
:func:`register_scheduler`, and the harness instantiates methods through
:func:`create_scheduler` without importing (or even knowing about) the
concrete classes.  New methods therefore plug into every sweep, benchmark and
CLI entry point by registering themselves — no runner changes required.

A *factory* is any callable returning a scheduler-like object (something with
a ``schedule_taskset(task_set)`` method).  Factories may accept one optional
positional ``config`` argument (e.g. :class:`~repro.scheduling.ga.GAConfig`
for the GA); :func:`create_scheduler` only forwards ``config`` when the caller
provides one, so config-free schedulers can ignore the concern entirely.
Keyword arguments given to :func:`create_scheduler` are forwarded to the
factory as overrides (this is what spec strings such as
``"ga:generations=50"`` resolve through); a keyword the factory does not
accept raises a ``TypeError`` naming the offending factory.
"""

from __future__ import annotations

import inspect

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

#: name -> factory.  Aliases map to the same factory object.
_REGISTRY: Dict[str, Callable[..., Any]] = {}
#: name -> the name it was registered under (an alias maps to its method's).
_CANONICAL: Dict[str, str] = {}

_MISSING = object()


def register_scheduler(
    name: str,
    factory: Optional[Callable[..., Any]] = None,
    *,
    aliases: Sequence[str] = (),
    overwrite: bool = False,
):
    """Register a scheduler factory under ``name`` (plus optional aliases).

    Usable both as a class decorator::

        @register_scheduler("static")
        class HeuristicScheduler(Scheduler): ...

    and as a direct call for ad-hoc factories::

        register_scheduler("fps-online", FPSOnlineSchedulabilityMethod)

    Duplicate names raise ``ValueError`` unless ``overwrite=True`` — silent
    re-registration almost always indicates two methods fighting over a name.
    """

    def _register(target: Callable[..., Any]) -> Callable[..., Any]:
        keys = (name, *aliases)
        # Validate every key before touching the registry, so a conflicting
        # alias cannot leave a half-registered entry behind.
        if not overwrite:
            for key in keys:
                if key in _REGISTRY and _REGISTRY[key] is not target:
                    raise ValueError(
                        f"scheduler {key!r} is already registered "
                        f"(to {_REGISTRY[key]!r}); pass overwrite=True to replace it"
                    )
        for key in keys:
            _REGISTRY[key] = target
            _CANONICAL[key] = name
        return target

    if factory is not None:
        return _register(factory)
    return _register


def unregister_scheduler(name: str) -> None:
    """Remove ``name`` from the registry (aliases must be removed separately)."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown scheduler {name!r}")
    del _REGISTRY[name]
    _CANONICAL.pop(name, None)


def canonical_scheduler_name(name: str) -> str:
    """The name ``name`` was registered under: an alias resolves to its
    method's name, any other name (registered or not) to itself."""
    return _CANONICAL.get(name, name)


def scheduler_registered(name: str) -> bool:
    """Whether ``name`` resolves to a registered factory."""
    return name in _REGISTRY


def available_schedulers() -> Tuple[str, ...]:
    """Sorted names (including aliases) of every registered scheduler."""
    return tuple(sorted(_REGISTRY))


def list_schedulers() -> Dict[str, str]:
    """Every registered scheduler name mapped to its factory's identity.

    Aliases appear as their own entries (pointing at the same factory), so the
    mapping answers both "what can I pass as a method?" and "which of these
    are the same thing?".  This is what the CLIs print for ``--list-methods``.
    """
    return {name: _describe_factory(_REGISTRY[name]) for name in available_schedulers()}


def format_scheduler_listing() -> str:
    """The ``--list-methods`` text both CLIs print: one ``name  factory`` line each."""
    return "\n".join(f"{name:<16} {factory}" for name, factory in list_schedulers().items())


def get_scheduler_factory(name: str) -> Callable[..., Any]:
    """The raw factory registered under ``name`` (for introspection/tests)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; registered: {', '.join(available_schedulers())}"
        ) from None


def _describe_factory(factory: Callable[..., Any]) -> str:
    """Human-readable identity of a factory for error messages."""
    qualname = getattr(factory, "__qualname__", None) or getattr(
        factory, "__name__", None
    )
    if qualname is None:
        return repr(factory)
    module = getattr(factory, "__module__", None)
    return f"{module}.{qualname}" if module else qualname


def _check_overrides(
    name: str, factory: Callable[..., Any], args: Tuple[Any, ...], overrides: Dict[str, Any]
) -> None:
    """Reject keyword overrides the factory's signature cannot bind.

    Raises a ``TypeError`` that names both the registry entry and the factory,
    so a typo in a spec string points straight at the culprit.  Factories
    whose signature cannot be introspected (some builtins) are given the
    benefit of the doubt and called directly.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return
    try:
        signature.bind(*args, **overrides)
    except TypeError as error:
        accepted = ", ".join(signature.parameters) or "<none>"
        raise TypeError(
            f"scheduler {name!r} (factory {_describe_factory(factory)}) rejected "
            f"keyword overrides {sorted(overrides)}: {error}; "
            f"accepted parameters: {accepted}"
        ) from None


def create_scheduler(name: str, config: Any = _MISSING, **overrides: Any) -> Any:
    """Instantiate the scheduler registered under ``name``.

    ``config`` (when given) is forwarded as the factory's single positional
    argument; omitted otherwise, so factories without configuration knobs need
    not declare a parameter for it.  Keyword ``overrides`` are forwarded to
    the factory verbatim — this is the hook spec strings such as
    ``"ga:generations=50,population_size=40"`` resolve through.  An override
    the factory rejects raises ``TypeError`` naming the factory.
    """
    factory = get_scheduler_factory(name)
    args = () if config is _MISSING else (config,)
    if overrides:
        _check_overrides(name, factory, args, overrides)
        try:
            return factory(*args, **overrides)
        except TypeError as error:
            # The signature bound but the factory still rejected a keyword at
            # construction time (e.g. an unknown config field): re-raise with
            # the factory named so spec-string callers can locate the typo.
            raise TypeError(
                f"scheduler {name!r} (factory {_describe_factory(factory)}) rejected "
                f"keyword overrides {sorted(overrides)}: {error}"
            ) from error
    return factory(*args)
