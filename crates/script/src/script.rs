//! Script representation, builder, and wire serialization.

use crate::opcode::Opcode;
use std::fmt;
use std::sync::Arc;

/// One element of a script: a data push or an operator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Pushes literal bytes onto the stack.
    Push(Vec<u8>),
    /// Executes an operator.
    Op(Opcode),
}

/// A script: an ordered list of instructions.
///
/// The instructions live behind an [`Arc`], so a clone is a reference
/// count bump: an output's locking script is one allocation however many
/// UTXO entries, pool entries, undo records and memo keys hold it. Equal
/// scripts compare equal whether or not they share that allocation, and
/// two clones of one script compare by pointer first.
///
/// # Examples
///
/// Building the paper's Listing 1 manually (the canonical constructor is
/// [`crate::templates::ephemeral_key_release`]):
///
/// ```
/// use bcwan_script::{Opcode, Script};
///
/// let script = Script::builder()
///     .push(vec![1, 2, 3])          // <rsaPubKey>
///     .op(Opcode::CheckRsa512Pair)
///     .op(Opcode::If)
///     // ...
///     .op(Opcode::EndIf)
///     .op(Opcode::CheckSig)
///     .build();
/// assert_eq!(script.instructions().len(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Script {
    instructions: Arc<[Instruction]>,
}

/// Error from parsing script bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseScriptError {
    /// A push declared more bytes than remained.
    TruncatedPush {
        /// Bytes declared by the push prefix.
        declared: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// An undefined opcode byte.
    UnknownOpcode(u8),
    /// Input ended inside a length prefix.
    TruncatedPrefix,
}

impl fmt::Display for ParseScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseScriptError::TruncatedPush {
                declared,
                available,
            } => {
                write!(f, "push of {declared} bytes but only {available} remain")
            }
            ParseScriptError::UnknownOpcode(b) => write!(f, "unknown opcode 0x{b:02x}"),
            ParseScriptError::TruncatedPrefix => write!(f, "truncated push length prefix"),
        }
    }
}

impl std::error::Error for ParseScriptError {}

// Direct pushes cover 1..=75 bytes, as in Bitcoin.
const MAX_DIRECT_PUSH: usize = 75;
const OP_PUSHDATA1: u8 = 0x4c;
const OP_PUSHDATA2: u8 = 0x4d;
/// The longest push `OP_PUSHDATA2`'s 16-bit length can encode.
const MAX_PUSH: usize = u16::MAX as usize;

/// Refuses a push the wire format cannot encode.
fn check_push(instr: &Instruction) {
    if let Instruction::Push(data) = instr {
        assert!(
            data.len() <= MAX_PUSH,
            "a {}-byte push exceeds the {MAX_PUSH}-byte OP_PUSHDATA2 limit",
            data.len()
        );
    }
}

/// Wire size of one instruction: its prefix byte(s) plus any push data.
fn encoded_len(instr: &Instruction) -> usize {
    match instr {
        Instruction::Op(_) => 1,
        Instruction::Push(data) => {
            let prefix = match data.len() {
                len if len <= MAX_DIRECT_PUSH => 1,
                len if len <= u8::MAX as usize => 2,
                _ => 3,
            };
            prefix + data.len()
        }
    }
}

impl Script {
    /// An empty script.
    pub fn new() -> Self {
        Script::default()
    }

    /// Starts a builder.
    pub fn builder() -> ScriptBuilder {
        ScriptBuilder::default()
    }

    /// Builds a script from instructions.
    ///
    /// # Panics
    ///
    /// If a push is longer than 65 535 bytes, which the wire format
    /// cannot encode.
    pub fn from_instructions(instructions: Vec<Instruction>) -> Self {
        instructions.iter().for_each(check_push);
        Script {
            instructions: instructions.into(),
        }
    }

    /// The instruction list.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Whether the script starts with `OP_RETURN` (an unspendable data
    /// carrier — BcWAN's IP-directory announcements use this form).
    pub fn is_op_return(&self) -> bool {
        matches!(
            self.instructions.first(),
            Some(Instruction::Op(Opcode::Return))
        )
    }

    /// Whether any instruction is the given opcode. Push data is not
    /// decoded — only literal opcodes match — which is what validation
    /// wants when classifying a locking script (e.g. spotting the
    /// `OP_CHECKRSA512PAIR` escrow branches for sigcache accounting).
    pub fn contains_op(&self, op: Opcode) -> bool {
        self.instructions
            .iter()
            .any(|i| matches!(i, Instruction::Op(o) if *o == op))
    }

    /// Extracts the data payload of an `OP_RETURN` script, if it is one.
    pub fn op_return_data(&self) -> Option<&[u8]> {
        match &self.instructions[..] {
            [Instruction::Op(Opcode::Return), Instruction::Push(data)] => Some(data),
            _ => None,
        }
    }

    /// Serializes to wire bytes (Bitcoin-style push prefixes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the wire bytes of [`Script::to_bytes`] to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for instr in self.instructions.iter() {
            match instr {
                Instruction::Op(op) => out.push(op.to_byte()),
                Instruction::Push(data) => {
                    if data.is_empty() {
                        out.push(Opcode::Op0.to_byte());
                    } else if data.len() <= MAX_DIRECT_PUSH {
                        out.push(data.len() as u8);
                        out.extend_from_slice(data);
                    } else if data.len() <= u8::MAX as usize {
                        out.push(OP_PUSHDATA1);
                        out.push(data.len() as u8);
                        out.extend_from_slice(data);
                    } else {
                        out.push(OP_PUSHDATA2);
                        out.extend_from_slice(&(data.len() as u16).to_le_bytes());
                        out.extend_from_slice(data);
                    }
                }
            }
        }
    }

    /// Parses wire bytes.
    ///
    /// # Errors
    ///
    /// [`ParseScriptError`] on truncated pushes or unknown opcodes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParseScriptError> {
        let mut instructions = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            i += 1;
            let push_len = match b {
                1..=75 => Some(b as usize),
                OP_PUSHDATA1 => {
                    if i >= bytes.len() {
                        return Err(ParseScriptError::TruncatedPrefix);
                    }
                    let len = bytes[i] as usize;
                    i += 1;
                    Some(len)
                }
                OP_PUSHDATA2 => {
                    if i + 1 >= bytes.len() {
                        return Err(ParseScriptError::TruncatedPrefix);
                    }
                    let len = u16::from_le_bytes([bytes[i], bytes[i + 1]]) as usize;
                    i += 2;
                    Some(len)
                }
                _ => None,
            };
            match push_len {
                Some(len) => {
                    if i + len > bytes.len() {
                        return Err(ParseScriptError::TruncatedPush {
                            declared: len,
                            available: bytes.len() - i,
                        });
                    }
                    instructions.push(Instruction::Push(bytes[i..i + len].to_vec()));
                    i += len;
                }
                None => match Opcode::from_byte(b) {
                    Some(Opcode::Op0) => instructions.push(Instruction::Push(Vec::new())),
                    Some(op) => instructions.push(Instruction::Op(op)),
                    None => return Err(ParseScriptError::UnknownOpcode(b)),
                },
            }
        }
        Ok(Script {
            instructions: instructions.into(),
        })
    }

    /// Wire size in bytes, counted without encoding.
    pub fn byte_len(&self) -> usize {
        self.instructions.iter().map(encoded_len).sum()
    }

    /// Concatenates two scripts (scriptSig ‖ scriptPubKey evaluation order
    /// is handled by the interpreter; this is for assembling templates).
    pub fn concat(&self, other: &Script) -> Script {
        Script {
            instructions: self
                .instructions
                .iter()
                .chain(other.instructions.iter())
                .cloned()
                .collect(),
        }
    }
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for instr in self.instructions.iter() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match instr {
                Instruction::Op(op) => write!(f, "{op}")?,
                Instruction::Push(data) => write!(f, "<{}>", bcwan_crypto::hex::encode(data))?,
            }
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

/// Incremental script builder.
#[derive(Debug, Clone, Default)]
pub struct ScriptBuilder {
    instructions: Vec<Instruction>,
}

impl ScriptBuilder {
    /// Appends a data push.
    ///
    /// # Panics
    ///
    /// If `data` is longer than 65 535 bytes, which the wire format
    /// cannot encode.
    pub fn push(mut self, data: Vec<u8>) -> Self {
        let push = Instruction::Push(data);
        check_push(&push);
        self.instructions.push(push);
        self
    }

    /// Appends a minimal push of a script number (Bitcoin CScriptNum).
    pub fn push_num(mut self, n: i64) -> Self {
        self.instructions.push(Instruction::Push(encode_num(n)));
        self
    }

    /// Appends an operator.
    pub fn op(mut self, op: Opcode) -> Self {
        self.instructions.push(Instruction::Op(op));
        self
    }

    /// Finishes the script.
    pub fn build(self) -> Script {
        Script {
            instructions: self.instructions.into(),
        }
    }
}

/// Encodes a script number: little-endian, minimal, sign-magnitude top bit.
pub fn encode_num(n: i64) -> Vec<u8> {
    if n == 0 {
        return Vec::new();
    }
    let negative = n < 0;
    let mut abs = n.unsigned_abs();
    let mut out = Vec::new();
    while abs > 0 {
        out.push((abs & 0xff) as u8);
        abs >>= 8;
    }
    if out.last().expect("non-zero") & 0x80 != 0 {
        out.push(if negative { 0x80 } else { 0x00 });
    } else if negative {
        *out.last_mut().expect("non-zero") |= 0x80;
    }
    out
}

/// Decodes a script number (inverse of [`encode_num`]); `None` if longer
/// than 8 bytes.
pub fn decode_num(bytes: &[u8]) -> Option<i64> {
    if bytes.is_empty() {
        return Some(0);
    }
    if bytes.len() > 8 {
        return None;
    }
    let mut value: i64 = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let byte = if i == bytes.len() - 1 { b & 0x7f } else { b };
        value |= (byte as i64) << (8 * i);
    }
    if bytes.last().expect("non-empty") & 0x80 != 0 {
        value = -value;
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_script_round_trip() {
        let s = Script::new();
        assert!(s.is_empty());
        assert_eq!(Script::from_bytes(&s.to_bytes()).unwrap(), s);
        assert_eq!(s.to_string(), "(empty)");
    }

    #[test]
    fn serialize_round_trip_with_all_push_sizes() {
        let s = Script::builder()
            .push(vec![])
            .push(vec![1])
            .push(vec![2; 75])
            .push(vec![3; 76])
            .push(vec![4; 255])
            .push(vec![5; 256])
            .push(vec![6; 65_535])
            .op(Opcode::Dup)
            .op(Opcode::CheckRsa512Pair)
            .build();
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), s.byte_len());
        let round = Script::from_bytes(&bytes).unwrap();
        assert_eq!(round, s);
    }

    #[test]
    #[should_panic(expected = "65536-byte push")]
    fn builder_refuses_a_push_past_pushdata2() {
        let _ = Script::builder().push(vec![0; 65_536]);
    }

    #[test]
    #[should_panic(expected = "65536-byte push")]
    fn from_instructions_refuses_a_push_past_pushdata2() {
        let _ = Script::from_instructions(vec![Instruction::Push(vec![0; 65_536])]);
    }

    #[test]
    fn clones_share_the_instructions() {
        let s = Script::builder()
            .push(vec![1; 33])
            .op(Opcode::CheckSig)
            .build();
        let copy = s.clone();
        assert_eq!(copy.instructions().as_ptr(), s.instructions().as_ptr());
        let parsed = Script::from_bytes(&s.to_bytes()).unwrap();
        assert_ne!(parsed.instructions().as_ptr(), s.instructions().as_ptr());
        assert_eq!(parsed, s);
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            Script::from_bytes(&[5, 1, 2]),
            Err(ParseScriptError::TruncatedPush {
                declared: 5,
                available: 2
            })
        ));
        assert!(matches!(
            Script::from_bytes(&[0x4c]),
            Err(ParseScriptError::TruncatedPrefix)
        ));
        assert!(matches!(
            Script::from_bytes(&[0xfe]),
            Err(ParseScriptError::UnknownOpcode(0xfe))
        ));
    }

    #[test]
    fn op_return_detection() {
        let data = b"ip=192.168.1.10:9000".to_vec();
        let s = Script::builder()
            .op(Opcode::Return)
            .push(data.clone())
            .build();
        assert!(s.is_op_return());
        assert_eq!(s.op_return_data(), Some(data.as_slice()));
        let not = Script::builder().op(Opcode::Dup).build();
        assert!(!not.is_op_return());
        assert_eq!(not.op_return_data(), None);
    }

    #[test]
    fn script_num_round_trip() {
        for n in [
            0i64,
            1,
            -1,
            127,
            128,
            -128,
            255,
            256,
            0x7fffffff,
            -0x7fffffff,
            100_000,
        ] {
            let enc = encode_num(n);
            assert_eq!(decode_num(&enc), Some(n), "n={n}, enc={enc:?}");
        }
    }

    #[test]
    fn script_num_encoding_is_minimal() {
        assert_eq!(encode_num(0), Vec::<u8>::new());
        assert_eq!(encode_num(1), vec![1]);
        assert_eq!(encode_num(127), vec![0x7f]);
        assert_eq!(encode_num(128), vec![0x80, 0x00]); // needs sign-clear byte
        assert_eq!(encode_num(-1), vec![0x81]);
        assert_eq!(encode_num(520), vec![0x08, 0x02]);
    }

    #[test]
    fn decode_num_rejects_oversized() {
        assert_eq!(decode_num(&[0u8; 9]), None);
    }

    #[test]
    fn display_format() {
        let s = Script::builder()
            .push(vec![0xde, 0xad])
            .op(Opcode::Hash160)
            .build();
        assert_eq!(s.to_string(), "<dead> OP_HASH160");
    }

    #[test]
    fn concat_appends() {
        let a = Script::builder().op(Opcode::Dup).build();
        let b = Script::builder().op(Opcode::Drop).build();
        let c = a.concat(&b);
        assert_eq!(c.instructions().len(), 2);
    }
}
