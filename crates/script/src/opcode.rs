//! Script opcodes.
//!
//! A subset of Bitcoin script sufficient for BcWAN, plus the paper's
//! custom operator [`Opcode::CheckRsa512Pair`] and the time-lock operator
//! [`Opcode::CheckLockTimeVerify`] that together implement the
//! ephemeral-key-release contract of paper Listing 1.

use std::fmt;

/// A script operator.
///
/// Byte values follow Bitcoin where an equivalent exists;
/// `OP_CHECKRSA512PAIR` takes `0xc0` from the unassigned range (the paper
/// patched it into Multichain the same way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Push an empty byte string (false).
    Op0 = 0x00,
    /// Push the number 1 (true).
    Op1 = 0x51,
    /// Push 2.
    Op2 = 0x52,
    /// Push 3.
    Op3 = 0x53,
    /// Push 16.
    Op16 = 0x60,

    /// No operation.
    Nop = 0x61,
    /// Conditional: pops a bool, executes the branch.
    If = 0x63,
    /// Negated conditional.
    NotIf = 0x64,
    /// Alternative branch.
    Else = 0x67,
    /// Ends a conditional.
    EndIf = 0x68,
    /// Pops top; fails the script unless it is truthy.
    Verify = 0x69,
    /// Marks the output unspendable; the rest of the script is data.
    Return = 0x6a,

    /// Duplicates the top item.
    Dup = 0x76,
    /// Removes the top item.
    Drop = 0x75,
    /// Removes the second item.
    Nip = 0x77,
    /// Copies the second item to the top.
    Over = 0x78,
    /// Swaps the top two items.
    Swap = 0x7c,
    /// Rotates the top three items.
    Rot = 0x7b,
    /// Pushes the stack depth.
    Depth = 0x74,
    /// Pushes the byte length of the top item.
    Size = 0x82,

    /// Pops two; pushes whether they are byte-equal.
    Equal = 0x87,
    /// `Equal` then `Verify`.
    EqualVerify = 0x88,

    /// Adds one to the top number.
    Add1 = 0x8b,
    /// Subtracts one from the top number.
    Sub1 = 0x8c,
    /// Boolean negation of the top item.
    Not = 0x91,
    /// Pops two numbers; pushes their sum.
    Add = 0x93,
    /// Pops two numbers; pushes `a - b`.
    Sub = 0x94,
    /// Logical AND of two numbers.
    BoolAnd = 0x9a,
    /// Logical OR of two numbers.
    BoolOr = 0x9b,
    /// Numeric equality.
    NumEqual = 0x9c,
    /// `NumEqual` then `Verify`.
    NumEqualVerify = 0x9d,
    /// `a < b`.
    LessThan = 0x9f,
    /// `a > b`.
    GreaterThan = 0xa0,
    /// Minimum of two numbers.
    Min = 0xa3,
    /// Maximum of two numbers.
    Max = 0xa4,
    /// `min <= x < max`.
    Within = 0xa5,

    /// RIPEMD-160 of the top item.
    Ripemd160 = 0xa6,
    /// SHA-256 of the top item.
    Sha256 = 0xa8,
    /// RIPEMD-160 ∘ SHA-256 (Bitcoin address hash).
    Hash160 = 0xa9,
    /// Double SHA-256.
    Hash256 = 0xaa,
    /// Pops pubkey and signature; pushes signature validity.
    CheckSig = 0xac,
    /// `CheckSig` then `Verify`.
    CheckSigVerify = 0xad,

    /// BIP-65 absolute time lock: fails unless the spending transaction's
    /// lock time is at least the top stack number. Leaves the stack intact.
    CheckLockTimeVerify = 0xb1,

    /// **BcWAN custom operator** (paper §4.4): pops an RSA private key and
    /// an RSA public key; pushes whether they form a valid pair. The name
    /// keeps the paper's "512" but the check works for any modulus size,
    /// enabling the key-size ablation.
    CheckRsa512Pair = 0xc0,
}

impl Opcode {
    /// All opcodes (for table-driven decode).
    pub const ALL: [Opcode; 44] = [
        Opcode::Op0,
        Opcode::Op1,
        Opcode::Op2,
        Opcode::Op3,
        Opcode::Op16,
        Opcode::Nop,
        Opcode::If,
        Opcode::NotIf,
        Opcode::Else,
        Opcode::EndIf,
        Opcode::Verify,
        Opcode::Return,
        Opcode::Dup,
        Opcode::Drop,
        Opcode::Nip,
        Opcode::Over,
        Opcode::Swap,
        Opcode::Rot,
        Opcode::Depth,
        Opcode::Size,
        Opcode::Equal,
        Opcode::EqualVerify,
        Opcode::Add1,
        Opcode::Sub1,
        Opcode::Not,
        Opcode::Add,
        Opcode::Sub,
        Opcode::BoolAnd,
        Opcode::BoolOr,
        Opcode::NumEqual,
        Opcode::NumEqualVerify,
        Opcode::LessThan,
        Opcode::GreaterThan,
        Opcode::Min,
        Opcode::Max,
        Opcode::Within,
        Opcode::Ripemd160,
        Opcode::Sha256,
        Opcode::Hash160,
        Opcode::Hash256,
        Opcode::CheckSig,
        Opcode::CheckSigVerify,
        Opcode::CheckLockTimeVerify,
        Opcode::CheckRsa512Pair,
    ];

    /// The wire byte.
    pub(crate) fn to_byte(self) -> u8 {
        self as u8
    }

    /// Decodes a wire byte into an opcode.
    pub(crate) fn from_byte(b: u8) -> Option<Opcode> {
        Self::ALL.into_iter().find(|op| op.to_byte() == b)
    }

    /// Canonical `OP_*` name.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Op0 => "OP_0",
            Opcode::Op1 => "OP_1",
            Opcode::Op2 => "OP_2",
            Opcode::Op3 => "OP_3",
            Opcode::Op16 => "OP_16",
            Opcode::Nop => "OP_NOP",
            Opcode::If => "OP_IF",
            Opcode::NotIf => "OP_NOTIF",
            Opcode::Else => "OP_ELSE",
            Opcode::EndIf => "OP_ENDIF",
            Opcode::Verify => "OP_VERIFY",
            Opcode::Return => "OP_RETURN",
            Opcode::Dup => "OP_DUP",
            Opcode::Drop => "OP_DROP",
            Opcode::Nip => "OP_NIP",
            Opcode::Over => "OP_OVER",
            Opcode::Swap => "OP_SWAP",
            Opcode::Rot => "OP_ROT",
            Opcode::Depth => "OP_DEPTH",
            Opcode::Size => "OP_SIZE",
            Opcode::Equal => "OP_EQUAL",
            Opcode::EqualVerify => "OP_EQUALVERIFY",
            Opcode::Add1 => "OP_1ADD",
            Opcode::Sub1 => "OP_1SUB",
            Opcode::Not => "OP_NOT",
            Opcode::Add => "OP_ADD",
            Opcode::Sub => "OP_SUB",
            Opcode::BoolAnd => "OP_BOOLAND",
            Opcode::BoolOr => "OP_BOOLOR",
            Opcode::NumEqual => "OP_NUMEQUAL",
            Opcode::NumEqualVerify => "OP_NUMEQUALVERIFY",
            Opcode::LessThan => "OP_LESSTHAN",
            Opcode::GreaterThan => "OP_GREATERTHAN",
            Opcode::Min => "OP_MIN",
            Opcode::Max => "OP_MAX",
            Opcode::Within => "OP_WITHIN",
            Opcode::Ripemd160 => "OP_RIPEMD160",
            Opcode::Sha256 => "OP_SHA256",
            Opcode::Hash160 => "OP_HASH160",
            Opcode::Hash256 => "OP_HASH256",
            Opcode::CheckSig => "OP_CHECKSIG",
            Opcode::CheckSigVerify => "OP_CHECKSIGVERIFY",
            Opcode::CheckLockTimeVerify => "OP_CHECKLOCKTIMEVERIFY",
            Opcode::CheckRsa512Pair => "OP_CHECKRSA512PAIR",
        }
    }

    /// Small-integer value for `OP_0`–`OP_16` pushes, if this is one.
    pub(crate) fn small_int(self) -> Option<i64> {
        match self {
            Opcode::Op0 => Some(0),
            Opcode::Op1 => Some(1),
            Opcode::Op2 => Some(2),
            Opcode::Op3 => Some(3),
            Opcode::Op16 => Some(16),
            _ => None,
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip_for_all() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_byte(op.to_byte()), Some(op), "{op}");
        }
    }

    #[test]
    fn unknown_bytes_rejected() {
        assert_eq!(Opcode::from_byte(0xff), None);
        assert_eq!(Opcode::from_byte(0x50), None); // OP_RESERVED
    }

    #[test]
    fn bitcoin_compatible_bytes() {
        assert_eq!(Opcode::Dup.to_byte(), 0x76);
        assert_eq!(Opcode::Hash160.to_byte(), 0xa9);
        assert_eq!(Opcode::EqualVerify.to_byte(), 0x88);
        assert_eq!(Opcode::CheckSig.to_byte(), 0xac);
        assert_eq!(Opcode::CheckLockTimeVerify.to_byte(), 0xb1);
        assert_eq!(Opcode::Return.to_byte(), 0x6a);
    }

    #[test]
    fn names_match_convention() {
        assert_eq!(Opcode::CheckRsa512Pair.name(), "OP_CHECKRSA512PAIR");
        assert_eq!(
            Opcode::CheckLockTimeVerify.to_string(),
            "OP_CHECKLOCKTIMEVERIFY"
        );
    }

    #[test]
    fn small_ints() {
        assert_eq!(Opcode::Op0.small_int(), Some(0));
        assert_eq!(Opcode::Op16.small_int(), Some(16));
        assert_eq!(Opcode::Dup.small_int(), None);
    }
}
