"""REP401 — experiment registry completeness.

Every ``repro/experiments/*.py`` experiment module must be registered in
``registry.py`` (otherwise ``run_all`` silently skips it),
and every registered experiment id must have a reference output under
``benchmarks/results/<id>.txt`` (otherwise there is nothing to compare
a rerun against). The rule fires while linting ``registry.py`` itself,
so the diagnostics land where the fix goes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePosixPath

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..graph import resolve_from_module
from ..registry import Rule, register


@register(
    Rule(
        id="REP401",
        name="registry-completeness",
        summary=(
            "every experiment module is registered and every registered "
            "experiment has a benchmarks/results reference file"
        ),
    )
)
class RegistryCompletenessChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        config = ctx.config
        registry_rel = PurePosixPath(config.experiments_package) / "registry.py"
        if PurePosixPath(ctx.relpath) != registry_rel:
            return

        experiments_dir = ctx.project.root / config.experiments_package
        exempt = set(config.non_experiment_modules)
        module_names = {
            path.stem
            for path in experiments_dir.glob("*.py")
            if path.stem not in exempt
        }

        # ``from . import fig2, ...``: the registry's own package.
        package = resolve_from_module(1, None, ctx.module, is_package=False)
        imported: dict[str, int] = {}
        for site in ctx.summary.import_sites:
            if site.level == 1 and site.module == package:
                for name in site.names:
                    imported[name] = site.line

        for module in sorted(module_names - set(imported)):
            yield Diagnostic(
                path=ctx.relpath,
                line=1,
                col=0,
                rule_id=self.rule.id,
                message=(
                    f"experiment module {module!r} is not imported by the "
                    "registry"
                ),
                hint=(
                    "import it and add an entry to EXPERIMENTS, or list it "
                    "in non-experiment-modules"
                ),
            )

        experiment_ids, referenced_modules = self._experiments_dict(ctx.tree)

        for module, line in sorted(imported.items()):
            if module in module_names and module not in referenced_modules:
                yield Diagnostic(
                    path=ctx.relpath,
                    line=line,
                    col=0,
                    rule_id=self.rule.id,
                    message=(
                        f"experiment module {module!r} is imported but has "
                        "no EXPERIMENTS entry"
                    ),
                    hint="add an '<id>: module.run' entry to EXPERIMENTS",
                )

        results_dir = ctx.project.root / config.results_dir
        for exp_id, line in sorted(experiment_ids.items()):
            if not (results_dir / f"{exp_id}.txt").is_file():
                yield Diagnostic(
                    path=ctx.relpath,
                    line=line,
                    col=0,
                    rule_id=self.rule.id,
                    message=(
                        f"experiment {exp_id!r} has no reference output "
                        f"{config.results_dir}/{exp_id}.txt"
                    ),
                    hint=(
                        "run the benchmark suite to materialize the "
                        "reference output"
                    ),
                )

    @staticmethod
    def _experiments_dict(
        tree: ast.Module,
    ) -> tuple[dict[str, int], set[str]]:
        """Keys of the EXPERIMENTS dict plus the module names its values use."""
        ids: dict[str, int] = {}
        modules: set[str] = set()
        for node in tree.body:
            value = (
                node.value
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                else None
            )
            if not isinstance(value, ast.Dict):
                continue
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            if not any(
                isinstance(t, ast.Name) and t.id == "EXPERIMENTS"
                for t in targets
            ):
                continue
            for key, val in zip(value.keys, value.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    ids[key.value] = key.lineno
                root = val
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name):
                    modules.add(root.id)
        return ids, modules
