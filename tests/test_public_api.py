"""The public surface of `haargap`, pinned as one rendered text.

The text has a line for each name that `dir(haargap)` gives right after
`import haargap`: its kind, the module that defines it and, for the float
layer's names, that they load on first read.  Under each exported dataclass
come its fields, under each exported class the signatures of its
hand-written constructor and of its public methods and classmethods, and its
properties; under each exported function its signature.  A last line counts
the names, the fields and the functions' parameters.

The text is rendered in a fresh interpreter, since submodules that other
tests import, such as `haargap.cli`, would show up as attributes here.  Only
`inspect` and `dataclasses` read the surface, and every annotation stays the
source string, so the text is the same on Python 3.10 to 3.12.  A change to
the surface changes the text: re-pin it and record the change in CHANGES.md
as a public-API change, with the caller's migration.

`python tests/test_public_api.py` prints the current text.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import haargap


def _class_lines(cls) -> list[str]:
    lines = []
    if dataclasses.is_dataclass(cls):
        for f in dataclasses.fields(cls):
            default = "" if f.default is dataclasses.MISSING else f" = {f.default!r}"
            lines.append(f"field {f.name}: {f.type}{default}")
    elif "__init__" in vars(cls):
        lines.append(f"constructor {cls.__name__}{inspect.signature(cls)}")
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            lines.append(f"property {name}")
        elif isinstance(member, classmethod):
            lines.append(f"classmethod {name}{inspect.signature(getattr(cls, name))}")
        elif callable(member):
            lines.append(f"method {name}{inspect.signature(member)}")
    return lines


def render() -> str:
    """The surface of the imported `haargap` as text, one line per entry."""
    names = [name for name in dir(haargap) if not name.startswith("_")]
    eager = set(vars(haargap))
    lines, fields, parameters = [], 0, 0
    for name in names:
        obj = getattr(haargap, name)
        if inspect.ismodule(obj):
            kind, home = "module", obj.__name__
        else:
            home = getattr(obj, "__module__", type(obj).__module__)
            if inspect.isclass(obj):
                kind = ("exception" if issubclass(obj, BaseException)
                        else "dataclass" if dataclasses.is_dataclass(obj) else "class")
            else:
                kind = "function" if callable(obj) else f"{type(obj).__name__} instance"
        lazy = "" if name in eager else ", loaded on first read"
        lines.append(f"{name}: {kind}, {home}{lazy}")
        if inspect.isclass(obj):
            members = _class_lines(obj)
            fields += sum(line.startswith("field ") for line in members)
            lines += [f"    {line}" for line in members]
        elif kind == "function":
            signature = inspect.signature(obj)
            parameters += len(signature.parameters)
            lines.append(f"    {name}{signature}")
    lines.append(f"{len(names)} names, {fields} dataclass fields, {parameters} function parameters")
    return "\n".join(lines) + "\n"


PINNED = """\
CapacityError: exception, haargap.roots
CartanElement: dataclass, haargap.roots
    field coords: tuple[Fraction, ...]
    property n
    method is_zero(self) -> 'bool'
CotlarCheck: dataclass, haargap.cotlar_stein, loaded on first read
    field R1: float
    field R2: float
    field lhs: float
    property holds
FastSlowSplit: dataclass, haargap.entropy
    field threshold: Fraction
    field slow_indices: tuple[int, ...]
    field fast_indices: tuple[int, ...]
    field dispersive_exponent: Fraction
    property J0
LPModel: dataclass, haargap.rigidity
    field supports: tuple[Partition, ...]
    field directions: tuple[CartanElement, ...]
    field ge_rows: tuple[tuple[Fraction, ...], ...]
    field ge_rhs: tuple[Fraction, ...]
    field group_of: tuple[int, ...]
    property variables
    property objective
LPSolution: dataclass, haargap.rigidity
    field optimum: Fraction
    field weights: dict[Partition, Fraction]
LyapunovSpectrum: dataclass, haargap.entropy
    field values: tuple[Fraction, ...]
    field direction: CartanElement
    property J
    property chi_max
MatrixFamily: dataclass, haargap.cotlar_stein, loaded on first read
    field members: np.ndarray
    property shape
    classmethod random_gaussian(num_members: 'int', rows: 'int', cols: 'int', seed: 'int') -> "'MatrixFamily'"
OscillatoryDecay: dataclass, haargap.cotlar_stein, loaded on first read
    field magnitudes: tuple
    field fitted_slope: float
    field min_phase_speed: float
    field max_phase_speed: float
OscillatoryProblem: dataclass, haargap.cotlar_stein, loaded on first read
    field grid: np.ndarray
    field phase: np.ndarray
    field amplitude: np.ndarray
    field hbar_values: tuple
    classmethod from_functions(phase_fn, amplitude_fn) -> "'OscillatoryProblem'"
Partition: class, haargap.supports
    property kind
    property label
RigidityProblem: dataclass, haargap.rigidity
    field n: int
    field lattice: str
    field beta: Fraction
    field bound_mode: str
    field test_directions: tuple[CartanElement, ...] = ()
Root: dataclass, haargap.roots
    field i: int
    field j: int
RootSystem: class, haargap.roots
    constructor RootSystem(n: 'int')
    method positive_roots(self) -> 'tuple[Root, ...]'
TOLERANCES: NumericTolerances instance, haargap.cotlar_stein, loaded on first read
build_lp: function, haargap.rigidity
    build_lp(problem: 'RigidityProblem') -> 'LPModel'
build_type_a: function, haargap.roots
    build_type_a(n: 'int') -> 'RootSystem'
cartan: function, haargap.roots
    cartan(*coords) -> 'CartanElement'
conjectured_entropy_bound: function, haargap.entropy
    conjectured_entropy_bound(rs: 'RootSystem', X: 'CartanElement') -> 'Fraction'
cotlar_bound_check: function, haargap.cotlar_stein, loaded on first read
    cotlar_bound_check(family: 'MatrixFamily') -> 'CotlarCheck'
default_test_directions: function, haargap.rigidity
    default_test_directions(n: 'int') -> 'tuple[CartanElement, ...]'
dominant_representative: function, haargap.roots
    dominant_representative(X: 'CartanElement') -> 'CartanElement'
entropy: module, haargap.entropy
entropy_lower_bound: function, haargap.entropy
    entropy_lower_bound(rs: 'RootSystem', X: 'CartanElement') -> 'Fraction'
enumerate_block_partitions: function, haargap.supports
    enumerate_block_partitions(n: 'int') -> 'BlockPartitions'
enumerate_symmetric_closed: function, haargap.supports
    enumerate_symmetric_closed(n: 'int') -> 'list[Partition]'
extremal_vertex_report: function, haargap.rigidity
    extremal_vertex_report(solution: 'LPSolution') -> 'tuple[tuple[str, str, Fraction], ...]'
fast_slow_split: function, haargap.entropy
    fast_slow_split(spec: 'LyapunovSpectrum', K) -> 'FastSlowSplit'
haar_entropy: function, haargap.entropy
    haar_entropy(rs: 'RootSystem', X: 'CartanElement') -> 'Fraction'
inner_weight_formula: function, haargap.rigidity
    inner_weight_formula(n: 'int') -> 'Fraction'
is_regular: function, haargap.roots
    is_regular(X: 'CartanElement') -> 'bool'
lattice_supports: function, haargap.rigidity
    lattice_supports(n: 'int', lattice: 'str') -> 'Iterable[Partition]'
lyapunov_spectrum: function, haargap.entropy
    lyapunov_spectrum(rs: 'RootSystem', X: 'CartanElement') -> 'LyapunovSpectrum'
min_haar_weight: function, haargap.rigidity
    min_haar_weight(n: 'int', lattice: 'str', beta) -> 'Fraction'
orthogonal_projector_family: function, haargap.cotlar_stein, loaded on first read
    orthogonal_projector_family(num_blocks: 'int', block_size: 'int') -> 'MatrixFamily'
oscillatory_decay: function, haargap.cotlar_stein, loaded on first read
    oscillatory_decay(problem: 'OscillatoryProblem') -> 'OscillatoryDecay'
rigidity: module, haargap.rigidity
roots: module, haargap.roots
run_validation_suite: function, haargap.cotlar_stein, loaded on first read
    run_validation_suite(seed: 'int') -> 'dict'
simplex: module, haargap.simplex
smooth_bump: function, haargap.cotlar_stein, loaded on first read
    smooth_bump(x: 'np.ndarray') -> 'np.ndarray'
solve_lp: function, haargap.rigidity
    solve_lp(model: 'LPModel') -> 'LPSolution'
solve_min_haar: function, haargap.rigidity
    solve_min_haar(n: 'int', lattice: 'str', beta, *, bound_mode: 'str' = 'haar-fraction', test_directions=None) -> 'tuple[RigidityProblem, LPModel, LPSolution]'
supports: module, haargap.supports
verify_solution: function, haargap.rigidity
    verify_solution(model: 'LPModel', solution: 'LPSolution') -> 'bool'
weyl_orbit: function, haargap.roots
    weyl_orbit(X: 'CartanElement') -> 'tuple[CartanElement, ...]'
46 names, 33 dataclass fields, 40 function parameters
"""


def test_public_surface_is_pinned():
    # the interpreter imports the same haargap as this one
    path = os.pathsep.join(filter(None, (str(Path(haargap.__file__).parent.parent),
                                         os.environ.get("PYTHONPATH"))))
    rendered = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                              check=True, timeout=60, env={**os.environ, "PYTHONPATH": path}).stdout
    assert rendered == PINNED


if __name__ == "__main__":
    sys.stdout.write(render())
