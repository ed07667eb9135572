//! Generated hostile OpenQASM at the circuit trust boundary.
//!
//! Programs are structure-aware: a header (or a garbled one), register
//! declarations of valid, zero, huge, negative and past-`u32` widths, then
//! the grammar's statements — every gate with its arity and parameter
//! count one under, exact or one over, operand indices in and out of
//! range, huge, negative and past `u32`, finite, non-finite and malformed
//! parameters, barriers of one to many operands, measurements into bad
//! targets or with a broken arrow — and lines truncated or garbled at a
//! random character. `from_qasm` must never panic; whatever it accepts must
//! round-trip through `to_qasm` → `from_qasm` instruction for instruction.
//! Well-formed circuits must parse back the same way.

use proptest::prelude::*;
use proptest::TestRng;
use qcs_circuit::qasm::{from_qasm, to_qasm, QasmError};
use qcs_circuit::{Circuit, Clbit, Gate, Instruction, Qubit};
use rand::Rng;

/// Mnemonic, qubit arity and parameter count of every gate the parser
/// knows, then (the last `UNKNOWN`) a few it does not.
const GATES: [(&str, usize, usize); 25] = [
    ("id", 1, 0),
    ("x", 1, 0),
    ("y", 1, 0),
    ("z", 1, 0),
    ("h", 1, 0),
    ("s", 1, 0),
    ("sdg", 1, 0),
    ("t", 1, 0),
    ("tdg", 1, 0),
    ("sx", 1, 0),
    ("rx", 1, 1),
    ("ry", 1, 1),
    ("rz", 1, 1),
    ("u", 1, 3),
    ("u3", 1, 3),
    ("cp", 2, 1),
    ("cu1", 2, 1),
    ("cx", 2, 0),
    ("cz", 2, 0),
    ("swap", 2, 0),
    ("reset", 1, 0),
    ("ccx", 3, 0),
    ("u2", 1, 2),
    ("H", 1, 0),
    ("", 1, 0),
];

const UNKNOWN: usize = 4;

/// What stands in an index instead of a valid one.
const HOSTILE_INDEX: [&str; 10] = [
    "-1",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "1e3",
    "",
    " 1 ",
    "0x1",
    "१",
    "+1",
];

/// What stands in a parameter instead of a finite value.
const HOSTILE_PARAM: [&str; 12] = [
    "nan", "NaN", "inf", "-inf", "1e309", "-1e400", "", "pi", "1,5", "0.5.5", "--1", "१",
];

/// Characters a garbled line gets in place of one of its own.
const GARBLE: [&str; 14] = [
    "[", "]", "(", ")", ",", ";", "-", ">", "/", " ", "\t", "é", "q", "9",
];

/// An operand index: mostly below `width`, with probability `hostility`
/// each at or past it or a hostile token.
fn index(rng: &mut TestRng, width: usize, hostility: f64) -> String {
    if rng.gen_bool(hostility) {
        HOSTILE_INDEX[rng.gen_range(0..HOSTILE_INDEX.len())].to_string()
    } else if rng.gen_bool(hostility) {
        (width + rng.gen_range(0..3)).to_string()
    } else {
        rng.gen_range(0..width.clamp(1, 8)).to_string()
    }
}

fn param(rng: &mut TestRng, hostility: f64) -> String {
    if rng.gen_bool(hostility) {
        HOSTILE_PARAM[rng.gen_range(0..HOSTILE_PARAM.len())].to_string()
    } else {
        match rng.gen_range(0..4) {
            0 => rng.gen_range(-7.0..7.0f64).to_string(),
            1 => format!("{:e}", rng.gen_range(-1e300..1e300f64)),
            2 => "-0.0".to_string(),
            _ => format!("{:.3}", rng.gen_range(-3.2..3.2f64)),
        }
    }
}

/// One count off by at most one, in either direction, with probability
/// `hostility`.
fn off_by_one(rng: &mut TestRng, n: usize, hostility: f64) -> usize {
    if rng.gen_bool(hostility) {
        (n + rng.gen_range(0..3)).saturating_sub(1)
    } else {
        n
    }
}

fn operands(
    rng: &mut TestRng,
    register: &str,
    count: usize,
    width: usize,
    hostility: f64,
) -> String {
    (0..count)
        .map(|_| format!("{register}[{}]", index(rng, width, hostility)))
        .collect::<Vec<_>>()
        .join(if rng.gen_bool(0.2) { ", " } else { "," })
}

/// One statement of the grammar, possibly hostile.
fn statement(rng: &mut TestRng, width: usize, hostility: f64) -> String {
    match rng.gen_range(0..10) {
        0 => {
            let arrows = if rng.gen_bool(hostility) { 2..6 } else { 0..2 };
            let arrow = ["->", " -> ", "-", "", "->->", "<-"][rng.gen_range(arrows)];
            let (sources, targets) = (off_by_one(rng, 1, hostility), off_by_one(rng, 1, hostility));
            let qubits = operands(rng, "q", sources, width, hostility);
            let clbits = operands(rng, "c", targets, width, hostility);
            format!("measure {qubits}{arrow}{clbits};")
        }
        1 => {
            let least = usize::from(rng.gen_bool(hostility));
            let count = rng.gen_range(least..width.clamp(1, 6) + 1);
            format!("barrier {};", operands(rng, "q", count, width, hostility))
        }
        _ => {
            let known = GATES.len() - UNKNOWN;
            let pick = if rng.gen_bool(hostility) {
                known..GATES.len()
            } else {
                0..known
            };
            let (name, arity, params) = GATES[rng.gen_range(pick)];
            let params = off_by_one(rng, params, hostility);
            let mut line = name.to_string();
            if params > 0 || rng.gen_bool(hostility / 4.0) {
                let list: Vec<String> = (0..params).map(|_| param(rng, hostility)).collect();
                line += &format!("({})", list.join(","));
            }
            let arity = off_by_one(rng, arity, hostility);
            line + " " + &operands(rng, "q", arity, width, hostility) + ";"
        }
    }
}

/// `line` cut at, or with one character replaced at, a random char
/// boundary.
fn damage(rng: &mut TestRng, line: &str) -> String {
    let bounds: Vec<usize> = line
        .char_indices()
        .map(|(i, _)| i)
        .chain([line.len()])
        .collect();
    let at = bounds[rng.gen_range(0..bounds.len())];
    if rng.gen_bool(0.5) || at == line.len() {
        line[..at].to_string()
    } else {
        let next = line[at..].chars().next().map_or(0, char::len_utf8);
        format!(
            "{}{}{}",
            &line[..at],
            GARBLE[rng.gen_range(0..GARBLE.len())],
            &line[at + next..]
        )
    }
}

/// One hostile program.
struct HostileProgram;

impl Strategy for HostileProgram {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let hostility = [0.0, 0.02, 0.1, 0.3][rng.gen_range(0..4)];
        let damaged = [0.0, 0.0, 0.03, 0.15][rng.gen_range(0..4)];
        let width = if rng.gen_bool(hostility) {
            [0, 4_294_967_295, 1 << 40][rng.gen_range(0..3)]
        } else {
            rng.gen_range(1..7)
        };
        let width_token = if rng.gen_bool(hostility / 2.0) {
            HOSTILE_INDEX[rng.gen_range(0..HOSTILE_INDEX.len())].to_string()
        } else {
            width.to_string()
        };
        let mut lines = vec![
            [
                "OPENQASM 2.0;",
                "OPENQASM 2.0;",
                "OPENQASM",
                "OPENQASM 3;",
                "qasm 2.0;",
            ][if rng.gen_bool(hostility) {
                rng.gen_range(0..5)
            } else {
                0
            }]
            .to_string(),
            "include \"qelib1.inc\";".to_string(),
            format!("qreg q[{width_token}];"),
        ];
        if rng.gen_bool(0.7) {
            lines.push(format!("creg c[{}];", off_by_one(rng, width, hostility)));
        }
        for _ in 0..rng.gen_range(0..12) {
            lines.push(match rng.gen_range(0..20) {
                0 => String::new(),
                1 => "// a comment".to_string(),
                2 if rng.gen_bool(hostility) => format!("qreg q[{width}];"),
                _ => statement(rng, width, hostility),
            });
        }
        for line in &mut lines {
            if rng.gen_bool(damaged) {
                *line = damage(rng, line);
            }
        }
        lines.join(["\n", "\r\n"][rng.gen_range(0..2)])
    }
}

/// A valid circuit: gates on in-range distinct operands, barriers of one
/// to all qubits, measurements, finite parameters of any magnitude.
struct WellFormed;

impl Strategy for WellFormed {
    type Value = Circuit;

    fn generate(&self, rng: &mut TestRng) -> Circuit {
        let width = rng.gen_range(2..9usize);
        let mut c = Circuit::new(width);
        let angle = |rng: &mut TestRng| match rng.gen_range(0..3) {
            0 => rng.gen_range(-7.0..7.0),
            1 => rng.gen_range(-1e12..1e12),
            _ => -0.0,
        };
        for _ in 0..rng.gen_range(0..24) {
            let a = rng.gen_range(0..width);
            let b = (a + rng.gen_range(1..width)) % width;
            let one = |gate| Instruction::gate(gate, &[Qubit::from(a)]);
            let two = |gate| Instruction::gate(gate, &[Qubit::from(a), Qubit::from(b)]);
            let inst = match rng.gen_range(0..12) {
                0 => one([Gate::H, Gate::Sx, Gate::Tdg, Gate::Reset][rng.gen_range(0..4)]),
                1 => one(Gate::Rz(angle(rng))),
                2 => one(Gate::Rx(angle(rng))),
                3 => one(Gate::U(angle(rng), angle(rng), angle(rng))),
                4 => two(Gate::Cp(angle(rng))),
                5 => two([Gate::Cx, Gate::Cz, Gate::Swap][rng.gen_range(0..3)]),
                6 => Instruction::measure(Qubit::from(a), Clbit::from(b)),
                7 => {
                    let n = rng.gen_range(1..width + 1);
                    let qubits: Vec<Qubit> = (0..n).map(|i| Qubit::from((a + i) % width)).collect();
                    Instruction::gate(Gate::Barrier, &qubits)
                }
                _ => one(Gate::Y),
            };
            c.push(inst);
        }
        c
    }
}

/// `back` is `original` as `to_qasm` prints it: the same registers, gates
/// and operands, parameters to the printed twelve decimals.
fn assert_same_program(original: &Circuit, back: &Circuit) {
    assert_eq!(back.num_qubits(), original.num_qubits());
    assert_eq!(back.num_clbits(), original.num_clbits());
    assert_eq!(back.instructions().len(), original.instructions().len());
    for (a, b) in original.instructions().iter().zip(back.instructions()) {
        assert_eq!(a.gate.name(), b.gate.name());
        assert_eq!(a.qubits(), b.qubits());
        assert_eq!(a.clbits(), b.clbits());
        let (pa, pb) = (a.gate.params(), b.gate.params());
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0), "{a} vs {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Parsing never panics; an error is typed with a line inside the
    /// text, and an accepted program prints and parses back the same.
    #[test]
    fn hostile_programs_parse_typed_or_round_trip(text in HostileProgram) {
        let lines = text.lines().count();
        match from_qasm(&text) {
            Err(QasmError::Syntax { line, .. } | QasmError::UnknownGate { line, .. }) => {
                prop_assert!((1..=lines).contains(&line), "line {line} of {lines}");
            }
            Err(QasmError::MissingHeader | QasmError::MissingRegister | QasmError::Invalid(_)) => {}
            Ok(circuit) => {
                let back = from_qasm(&to_qasm(&circuit)).expect("printed program parses");
                assert_same_program(&circuit, &back);
            }
        }
    }

    /// A valid circuit prints and parses back instruction for
    /// instruction, wide barriers included.
    #[test]
    fn well_formed_circuits_round_trip(circuit in WellFormed) {
        let back = from_qasm(&to_qasm(&circuit)).expect("printed circuit parses");
        assert_same_program(&circuit, &back);
        prop_assert_eq!(back.depth(), circuit.depth());
    }
}
