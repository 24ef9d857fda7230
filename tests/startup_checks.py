"""Start-up checks, each run in a fresh interpreter with site-packages
disabled, so that `sys.modules` shows exactly what apimod loads:

    python -I -S tests/startup_checks.py imports|commands|model_commands

A check fails with a non-zero exit and its message on stderr. Each needs its
own interpreter: `commands` loads `typing`, `json` and `apimod.lifecycle`,
which `model_commands` asserts stay unloaded. The module imports nothing
beyond `os` and `sys`, which every interpreter has loaded, and runs from the
repository root, whatever the working directory.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def imports() -> None:
    """`import apimod` loads no analysis module, `import apimod.cli` none of
    the standard library's heavier modules, and neither compiles the
    scenario reader."""
    import apimod
    loaded = [m for m in ('apimod.evaluate', 'apimod.govern', 'apimod.link',
                          'apimod.transform') if m in sys.modules]
    assert not loaded, f'import apimod loaded {loaded}'
    import apimod.cli
    loaded = [m for m in ('__future__', 'dataclasses', 'inspect', 'json', 'csv',
                          'typing', 'apimod.lifecycle') if m in sys.modules]
    assert not loaded, f'import apimod.cli loaded {loaded}'
    parser = sys.modules.get('apimod.dsl.parser')
    assert getattr(parser, '_clean_scenario', None) is None, 'scenario reader compiled at import'


def commands() -> None:
    """Every module of the package imports, and every command runs on every
    dialect with its documented exit code."""
    import contextlib, importlib, io, json
    import apimod
    # every module of the package, walked without pkgutil, which imports typing
    for folder, _, files in os.walk('src/apimod'):
        package = folder[len('src/'):].replace(os.sep, '.')
        for name in files:
            if name.endswith('.py'):
                importlib.import_module(package if name == '__init__.py'
                                        else f'{package}.{name[:-3]}')
    assert 'importlib.resources' not in sys.modules, 'importlib.resources loaded at import'
    assert 'pathlib' not in sys.modules, 'pathlib loaded at import'
    # before the runs: importlib.resources, which loads package data, imports typing
    assert 'typing' not in sys.modules, 'typing loaded at import'
    from apimod.dsl import parser
    assert parser._clean_scenario is None, 'scenario reader compiled at import'
    from apimod.cli import main
    runs = [
        (['check', 'corpus/device_api.gm'], 0),
        (['govern', 'catalog', '--json'], 0),
        (['check', 'corpus/device_api.vm'], 0),
        (['transform', 'corpus/device_api.vm'], 0),
        (['check', 'corpus/device_settings.api'], 1),
        (['lifecycle', 'corpus/device_settings.api'], 1),
        (['metrics', 'check', 'corpus/sample_catalog.metrics'], 1),
        (['evaluate', 'corpus/device_api.gm', '--scenario', 'corpus/device_ok.scn'], 0),
        (['export', 'corpus/device_api.vm', '--flat'], 0),
        (['export', 'corpus/device_api.vm', '--focus', 'Device API'], 0),
        (['export', 'corpus/device_api_layers.gm', '--focus', 'Device API', '--flat'], 0),
        (['compare', 'corpus/ecosystem.gm', '--scenarios',
          'corpus/option_direct.scn,corpus/option_platform.scn'], 0),
        (['govern', 'classify', 'corpus/items.csv', '--mode', 'impl'], 0),
        (['govern', 'openness', 'easy', 'low'], 0),
        (['metrics', 'link', 'corpus/device_api.gm', 'corpus/device_metrics.metrics'], 1),
        (['metrics', 'who', 'corpus/device_api.gm', 'corpus/device_metrics.metrics'], 0),
        (['metrics', 'dimensions', 'corpus/sample_catalog.metrics'], 0),
        (['metrics', 'automation', 'corpus/sample_catalog.metrics'], 0),
        (['lifecycle', 'corpus/device_settings.api', '--curve', 'corpus/curve.csv'], 1),
        (['evaluate', 'corpus/device_api.gm', '--scenario', 'corpus/device_gap.scn',
          '--json'], 0),
        (['compare', 'corpus/ecosystem.gm', '--scenarios',
          'corpus/option_direct.scn,corpus/option_platform.scn', '--json'], 0),
        (['lifecycle', 'corpus/device_settings.api', '--curve', 'corpus/curve.csv',
          '--json'], 1),
    ]
    for argv, expected in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != expected:
            sys.exit(f'{argv}: exit {code}, expected {expected}')
        if '--json' in argv:
            json.loads(out.getvalue())
    assert parser._clean_scenario is not None, 'evaluate did not compile the scenario reader'


def model_commands() -> None:
    """Goal- and value-model commands, syntax errors included, load neither
    `typing`, nor the `json` package, nor `apimod.lifecycle`."""
    import contextlib, io, tempfile
    from apimod.cli import main
    scratch = tempfile.TemporaryDirectory()  # removed at exit
    # a syntax error in each dialect these commands read: its message
    # lists the choices without loading the api dialect's tables
    bad = {'bad.vm': 'valuemodel M { actor A { bapo = X } }',
           'bad.gm': 'goalmodel M { actor A { goal G G needs G } }',
           'bad.scn': 'scenario s { label T = maybe }'}
    for name, text in bad.items():
        with open(os.path.join(scratch.name, name), 'w', encoding='utf-8') as f:
            f.write(text)
    runs = [
        (['check', 'corpus/device_api.gm', '--json'], 0),
        (['evaluate', 'corpus/device_api.gm', '--scenario', 'corpus/device_gap.scn',
          '--json'], 0),
        (['compare', 'corpus/ecosystem.gm', '--scenarios',
          'corpus/option_direct.scn,corpus/option_platform.scn', '--json'], 0),
        (['export', 'corpus/cloud_api_layers.gm', '--focus', 'Cloud API', '--json'], 0),
        (['transform', 'corpus/device_api.vm'], 0),
    ] + [(['check', os.path.join(scratch.name, name)], 2) for name in bad]
    for argv, expected in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != expected:
            sys.exit(f'{argv}: exit {code}, expected {expected}')
    loaded = [m for m in ('typing', 'json', 'apimod.lifecycle') if m in sys.modules]
    assert not loaded, f'goal- and value-model commands loaded {loaded}'


CHECKS = {check.__name__: check for check in (imports, commands, model_commands)}

if __name__ == '__main__':
    os.chdir(ROOT)
    sys.path.insert(0, 'src')
    CHECKS[sys.argv[1]]()
