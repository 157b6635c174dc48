"""Shared test helpers for the configuration unit's execution records."""


def record_executions(monkeypatch, system):
    """Record every :class:`DescriptorExecution` the configuration unit
    returns, in call order (the runtime only hands callers the summed
    :class:`ExecResult`)."""
    seen = []
    run = system.config_unit.run_descriptor

    def recording(*args, **kwargs):
        seen.append(run(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(system.config_unit, "run_descriptor", recording)
    return seen


def ledger_entries(system, category):
    """The results of ``system``'s ledger entries in ``category``."""
    return [e.result for e in system.ledger.entries
            if e.category == category]
