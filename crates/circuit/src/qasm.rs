//! Minimal OpenQASM 2.0 serialization.
//!
//! Emits the subset of OpenQASM 2.0 our gate set maps onto, and parses it
//! back. This is the wire format jobs carry through the cloud simulator,
//! mirroring how real clients ship circuits to IBM's cloud.

use std::fmt::Write as _;

use crate::{Circuit, CircuitError, Clbit, Gate, Instruction, Qubit};

/// Errors from parsing OpenQASM text.
#[derive(Debug, Clone, PartialEq)]
pub enum QasmError {
    /// The header (`OPENQASM 2.0;`) was missing or malformed.
    MissingHeader,
    /// No quantum register declaration was found before gates.
    MissingRegister,
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Offending text.
        text: String,
    },
    /// An unknown gate mnemonic.
    UnknownGate {
        /// 1-based line number.
        line: usize,
        /// The mnemonic.
        name: String,
    },
    /// The parsed instruction failed circuit validation.
    Invalid(CircuitError),
}

impl std::fmt::Display for QasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QasmError::MissingHeader => write!(f, "missing OPENQASM header"),
            QasmError::MissingRegister => write!(f, "missing qreg declaration"),
            QasmError::Syntax { line, text } => write!(f, "syntax error on line {line}: {text}"),
            QasmError::UnknownGate { line, name } => {
                write!(f, "unknown gate '{name}' on line {line}")
            }
            QasmError::Invalid(e) => write!(f, "invalid instruction: {e}"),
        }
    }
}

impl std::error::Error for QasmError {}

impl From<CircuitError> for QasmError {
    fn from(e: CircuitError) -> Self {
        QasmError::Invalid(e)
    }
}

/// Serialize a circuit to OpenQASM 2.0 text.
///
/// # Examples
///
/// ```
/// use qcs_circuit::{qasm, Circuit};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).measure_all();
/// let text = qasm::to_qasm(&c);
/// assert!(text.contains("cx q[0],q[1];"));
/// let back = qasm::from_qasm(&text).unwrap();
/// assert_eq!(back.cx_count(), 1);
/// ```
#[must_use]
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    if circuit.num_clbits() > 0 {
        let _ = writeln!(out, "creg c[{}];", circuit.num_clbits());
    }
    for inst in circuit.instructions() {
        let params = inst.gate.params();
        out.push_str(inst.gate.name());
        for (i, p) in params.iter().enumerate() {
            let _ = write!(out, "{}{p:.12}", if i == 0 { "(" } else { "," });
        }
        if !params.is_empty() {
            out.push(')');
        }
        for (i, q) in inst.qubits().iter().enumerate() {
            let _ = write!(out, "{}q[{}]", if i == 0 { " " } else { "," }, q.0);
        }
        for c in inst.clbits() {
            let _ = write!(out, " -> c[{}]", c.0);
        }
        out.push_str(";\n");
    }
    out
}

/// Parse OpenQASM 2.0 text emitted by [`to_qasm`] (a practical subset:
/// single `qreg q[..]`/`creg c[..]` registers, declared before the first
/// statement, and the gate set of [`Gate`]).
///
/// The text is read in one pass over borrowed lines: a statement's
/// parameters and operands are parsed in place, so no line allocates
/// except a barrier's operand list.
///
/// # Errors
///
/// Returns [`QasmError`] on malformed input or gates outside the supported
/// set, and never panics: an operand count that does not match the gate
/// or an index past `u32` is a [`QasmError::Syntax`], an operand outside
/// the registers a [`QasmError::Invalid`].
pub fn from_qasm(text: &str) -> Result<Circuit, QasmError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            let code = l.split("//").next().unwrap_or("").trim();
            (i + 1, code.trim_end_matches(';').trim())
        })
        .filter(|(_, l)| !l.is_empty())
        .peekable();

    let (_, header) = lines.next().ok_or(QasmError::MissingHeader)?;
    if !header.starts_with("OPENQASM") {
        return Err(QasmError::MissingHeader);
    }

    // Declarations first; the first statement ends them.
    let mut num_qubits = 0usize;
    let mut num_clbits = 0usize;
    while let Some(&(lineno, line)) = lines.peek() {
        if let Some(rest) = line.strip_prefix("qreg") {
            num_qubits = parse_reg_size(rest, lineno)?;
        } else if let Some(rest) = line.strip_prefix("creg") {
            num_clbits = parse_reg_size(rest, lineno)?;
        } else if !line.starts_with("include") {
            break;
        }
        lines.next();
    }
    if num_qubits == 0 {
        return Err(QasmError::MissingRegister);
    }

    let mut c = Circuit::with_clbits(num_qubits, num_clbits.max(num_qubits));
    for (lineno, line) in lines {
        if line.starts_with("include") {
            continue;
        }
        parse_statement(&mut c, line, lineno)?;
    }
    Ok(c)
}

fn syntax(line: usize, text: &str) -> QasmError {
    QasmError::Syntax {
        line,
        text: text.to_string(),
    }
}

/// `name[size]` of a register declaration. Widths past `u32` are refused:
/// no operand could index them.
fn parse_reg_size(rest: &str, line: usize) -> Result<usize, QasmError> {
    if !rest.starts_with(char::is_whitespace) {
        return Err(syntax(line, rest));
    }
    parse_index(rest, line).map(|n| n as usize)
}

/// The index of an operand `name[index]`: a non-empty name, and nothing
/// after the closing bracket.
fn parse_index(token: &str, line: usize) -> Result<u32, QasmError> {
    let token = token.trim();
    token
        .split_once('[')
        .filter(|(name, _)| {
            let name = name.trim_end();
            !name.is_empty() && name.chars().all(is_name_char)
        })
        .and_then(|(_, rest)| rest.strip_suffix(']'))
        .and_then(|index| index.trim().parse::<u32>().ok())
        .ok_or_else(|| syntax(line, token))
}

fn is_name_char(ch: char) -> bool {
    ch.is_ascii_alphanumeric() || ch == '_'
}

fn parse_statement(c: &mut Circuit, line: &str, lineno: usize) -> Result<(), QasmError> {
    // "name(p1,p2) q[a],q[b]" or "name q[a],q[b]"
    let name_len = line.find(|ch| !is_name_char(ch)).unwrap_or(line.len());
    let (name, rest) = line.split_at(name_len);
    let mut params = [0.0f64; 3];
    let mut num_params = 0usize;
    let operands = match rest.strip_prefix('(') {
        Some(inner) => {
            let (list, operands) = inner.split_once(')').ok_or_else(|| syntax(lineno, line))?;
            for token in list.split(',') {
                let value = token
                    .trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| syntax(lineno, line))?;
                *params
                    .get_mut(num_params)
                    .ok_or_else(|| syntax(lineno, line))? = value;
                num_params += 1;
            }
            operands
        }
        None => rest,
    };
    if !operands.starts_with(char::is_whitespace) {
        return Err(syntax(lineno, line));
    }

    if name == "measure" && num_params == 0 {
        let (q, cl) = operands
            .split_once("->")
            .ok_or_else(|| syntax(lineno, line))?;
        let q = Qubit(parse_index(q, lineno)?);
        let cl = Clbit(parse_index(cl, lineno)?);
        c.try_push(Instruction::measure(q, cl))?;
        return Ok(());
    }
    if name == "barrier" && num_params == 0 {
        let qubits = operands
            .split(',')
            .map(|t| parse_index(t, lineno).map(Qubit))
            .collect::<Result<Vec<_>, _>>()?;
        c.try_push(Instruction::gate(Gate::Barrier, &qubits))?;
        return Ok(());
    }

    let gate =
        gate_from_name(name, &params[..num_params]).ok_or_else(|| QasmError::UnknownGate {
            line: lineno,
            name: name.to_string(),
        })?;
    let mut qubits = [Qubit(0); 2];
    let mut arity = 0usize;
    for token in operands.split(',') {
        let q = parse_index(token, lineno)?;
        *qubits.get_mut(arity).ok_or_else(|| syntax(lineno, line))? = Qubit(q);
        arity += 1;
    }
    if arity != gate.num_qubits() {
        return Err(syntax(lineno, line));
    }
    c.try_push(Instruction::gate(gate, &qubits[..arity]))?;
    Ok(())
}

fn gate_from_name(name: &str, params: &[f64]) -> Option<Gate> {
    Some(match (name, params.len()) {
        ("id", 0) => Gate::Id,
        ("x", 0) => Gate::X,
        ("y", 0) => Gate::Y,
        ("z", 0) => Gate::Z,
        ("h", 0) => Gate::H,
        ("s", 0) => Gate::S,
        ("sdg", 0) => Gate::Sdg,
        ("t", 0) => Gate::T,
        ("tdg", 0) => Gate::Tdg,
        ("sx", 0) => Gate::Sx,
        ("rx", 1) => Gate::Rx(params[0]),
        ("ry", 1) => Gate::Ry(params[0]),
        ("rz", 1) => Gate::Rz(params[0]),
        ("u", 3) | ("u3", 3) => Gate::U(params[0], params[1], params[2]),
        ("cp", 1) | ("cu1", 1) => Gate::Cp(params[0]),
        ("cx", 0) => Gate::Cx,
        ("cz", 0) => Gate::Cz,
        ("swap", 0) => Gate::Swap,
        ("reset", 0) => Gate::Reset,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    #[test]
    fn round_trip_bell() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let back = from_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(back.num_qubits(), 2);
        assert_eq!(back.size(), c.size());
        assert_eq!(back.cx_count(), 1);
        assert_eq!(back.measure_count(), 2);
    }

    #[test]
    fn round_trip_qft_preserves_metrics() {
        let c = library::qft(5);
        let back = from_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(back.cx_count(), c.cx_count());
        assert_eq!(back.depth(), c.depth());
        assert_eq!(back.size(), c.size());
    }

    #[test]
    fn round_trip_parametric_angles() {
        let mut c = Circuit::new(1);
        c.rz(1.234_567_89, 0).rx(-0.5, 0);
        let back = from_qasm(&to_qasm(&c)).unwrap();
        match back.instructions()[0].gate {
            Gate::Rz(t) => assert!((t - 1.234_567_89).abs() < 1e-9),
            ref g => panic!("expected rz, got {g:?}"),
        }
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(from_qasm("qreg q[2];"), Err(QasmError::MissingHeader));
    }

    #[test]
    fn missing_register_rejected() {
        assert_eq!(
            from_qasm("OPENQASM 2.0;\nh q[0];").unwrap_err(),
            QasmError::MissingRegister
        );
    }

    #[test]
    fn unknown_gate_rejected() {
        let err = from_qasm("OPENQASM 2.0;\nqreg q[1];\nccx q[0];").unwrap_err();
        assert!(matches!(err, QasmError::UnknownGate { .. }));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "OPENQASM 2.0;\n// a comment\nqreg q[2];\n\nh q[0]; // trailing\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.size(), 1);
    }

    /// `qreg q[2]; creg c[2];` then one statement.
    fn one_statement(statement: &str) -> Result<Circuit, QasmError> {
        from_qasm(&format!(
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n{statement}\n"
        ))
    }

    #[test]
    fn one_qubit_gate_on_two_operands_is_a_syntax_error() {
        let err = one_statement("h q[0],q[1];").unwrap_err();
        assert!(matches!(err, QasmError::Syntax { line: 4, .. }), "{err:?}");
    }

    #[test]
    fn two_qubit_gate_on_one_operand_is_a_syntax_error() {
        let err = one_statement("cx q[0];").unwrap_err();
        assert!(matches!(err, QasmError::Syntax { line: 4, .. }), "{err:?}");
    }

    #[test]
    fn measure_into_a_clbit_out_of_range_is_invalid() {
        let err = one_statement("measure q[0] -> c[9];").unwrap_err();
        assert!(
            matches!(
                err,
                QasmError::Invalid(CircuitError::ClbitOutOfRange { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn measure_of_a_qubit_out_of_range_is_invalid() {
        let err = one_statement("measure q[7] -> c[0];").unwrap_err();
        assert!(
            matches!(
                err,
                QasmError::Invalid(CircuitError::QubitOutOfRange { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn index_past_u32_is_a_syntax_error() {
        let err = one_statement("h q[4294967296];").unwrap_err();
        assert!(matches!(err, QasmError::Syntax { line: 4, .. }), "{err:?}");
    }

    #[test]
    fn registers_come_before_statements() {
        let err = from_qasm("OPENQASM 2.0;\nh q[0];\nqreg q[1];").unwrap_err();
        assert_eq!(err, QasmError::MissingRegister);
        let err = from_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0];\ncreg c[1];").unwrap_err();
        assert!(
            matches!(err, QasmError::UnknownGate { line: 4, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn hand_written_spacing_parses() {
        let c = from_qasm(
            "OPENQASM 2.0;\nqreg q[2];\nu3(0.1, 0.2, 0.3) q[1];\ncx q[0], q[1];\nmeasure q[1]->c[0];",
        )
        .unwrap();
        assert_eq!(c.instructions()[0].gate, Gate::U(0.1, 0.2, 0.3));
        assert_eq!(c.instructions()[1].qubits(), &[Qubit(0), Qubit(1)]);
        assert_eq!(c.instructions()[2].clbits(), &[Clbit(0)]);
    }

    #[test]
    fn garbage_after_an_operand_is_a_syntax_error() {
        for statement in [
            "h q[0]; h q[1]",
            "h q[0]x",
            "rz(nan) q[0]",
            "rz(1e400) q[0]",
        ] {
            let err = one_statement(statement).unwrap_err();
            assert!(
                matches!(err, QasmError::Syntax { .. }),
                "{statement}: {err:?}"
            );
        }
    }

    #[test]
    fn repeated_operand_is_invalid_at_any_width() {
        // Regression: `barrier q[0],q[0],q[1];` parsed, because only a
        // two-operand instruction was checked for a repeated qubit.
        for statement in [
            "cx q[1],q[1];",
            "barrier q[0],q[0];",
            "barrier q[0],q[0],q[1];",
            "barrier q[1],q[0],q[1];",
        ] {
            let err = one_statement(statement).unwrap_err();
            assert!(
                matches!(
                    err,
                    QasmError::Invalid(CircuitError::DuplicateOperand { .. })
                ),
                "{statement}: {err:?}"
            );
        }
        assert_eq!(
            one_statement("barrier q[0],q[0],q[1];").unwrap_err(),
            QasmError::Invalid(CircuitError::DuplicateOperand { qubit: Qubit(0) })
        );
        assert!(one_statement("barrier q[1],q[0];").is_ok());
    }

    #[test]
    fn wide_barrier_survives_clone_remap_and_round_trip() {
        let mut c = Circuit::new(4);
        c.h(0).h(0).h(0);
        c.push(Instruction::gate(
            Gate::Barrier,
            &[Qubit(0), Qubit(2), Qubit(3)],
        ));
        c.h(3).h(1);
        // h(3) waits for the barrier's level, set by q0; h(1) does not.
        assert_eq!(c.depth(), 4);

        let barrier = c.instructions()[3].clone();
        assert_eq!(barrier.qubits(), &[Qubit(0), Qubit(2), Qubit(3)]);
        assert_eq!(barrier, c.instructions()[3]);

        let mapped = c.remapped(4, |q| Qubit(3 - q.0));
        assert_eq!(
            mapped.instructions()[3].qubits(),
            &[Qubit(3), Qubit(1), Qubit(0)]
        );
        assert_eq!(mapped.depth(), 4);

        let back = from_qasm(&to_qasm(&mapped)).unwrap();
        assert_eq!(back, mapped);
        assert_eq!(back.depth(), 4);
    }

    #[test]
    fn barrier_round_trip() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.barrier();
        c.h(1);
        let back = from_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(back.depth(), 2);
    }
}
