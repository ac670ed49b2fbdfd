//! Scalar values and typed flat array storage for Fortran 90D data.

use std::fmt;

/// Element type of a Fortran 90D array or scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ElemType {
    /// `INTEGER`
    Int,
    /// `REAL` / `DOUBLE PRECISION` (modelled as f64 throughout).
    Real,
    /// `LOGICAL`
    Bool,
    /// `COMPLEX` (pair of f64).
    Complex,
}

impl ElemType {
    /// Storage size in bytes, used for message-volume accounting.
    pub fn bytes(&self) -> i64 {
        match self {
            ElemType::Int => 8,
            ElemType::Real => 8,
            ElemType::Bool => 4, // Fortran LOGICAL default kind
            ElemType::Complex => 16,
        }
    }

    /// The zero value of this type.
    pub fn zero(&self) -> Value {
        match self {
            ElemType::Int => Value::Int(0),
            ElemType::Real => Value::Real(0.0),
            ElemType::Bool => Value::Bool(false),
            ElemType::Complex => Value::Complex(0.0, 0.0),
        }
    }
}

/// A Fortran scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// `INTEGER`
    Int(i64),
    /// `REAL`
    Real(f64),
    /// `LOGICAL`
    Bool(bool),
    /// `COMPLEX` `(re, im)`
    Complex(f64, f64),
}

impl Value {
    /// The element type of this value.
    pub fn elem_type(&self) -> ElemType {
        match self {
            Value::Int(_) => ElemType::Int,
            Value::Real(_) => ElemType::Real,
            Value::Bool(_) => ElemType::Bool,
            Value::Complex(..) => ElemType::Complex,
        }
    }

    /// Coerce to f64 (Fortran numeric conversion). Panics on LOGICAL.
    #[inline]
    pub fn as_real(&self) -> f64 {
        match self {
            Value::Int(i) => *i as f64,
            Value::Real(r) => *r,
            Value::Complex(re, _) => *re,
            Value::Bool(_) => panic!("LOGICAL used in numeric context"),
        }
    }

    /// Coerce to i64 (Fortran INT conversion, truncating).
    #[inline]
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            Value::Real(r) => *r as i64,
            Value::Complex(re, _) => *re as i64,
            Value::Bool(_) => panic!("LOGICAL used in integer context"),
        }
    }

    /// Coerce to bool. Panics on numeric types.
    #[inline]
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("numeric value {other:?} used in LOGICAL context"),
        }
    }

    /// `[re, im]` of the value as a COMPLEX (a real value has no
    /// imaginary part). Panics on LOGICAL.
    #[inline]
    pub fn complex_parts(&self) -> [f64; 2] {
        match self {
            Value::Complex(re, im) => [*re, *im],
            other => [other.as_real(), 0.0],
        }
    }

    /// Convert to `ty`, following Fortran assignment conversion rules.
    pub fn convert_to(&self, ty: ElemType) -> Value {
        match ty {
            ElemType::Int => Value::Int(self.as_int()),
            ElemType::Real => Value::Real(self.as_real()),
            ElemType::Bool => Value::Bool(self.as_bool()),
            ElemType::Complex => {
                let [re, im] = self.complex_parts();
                Value::Complex(re, im)
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r:.6}"),
            Value::Bool(b) => write!(f, "{}", if *b { "T" } else { "F" }),
            Value::Complex(re, im) => write!(f, "({re:.6},{im:.6})"),
        }
    }
}

/// Homogeneous flat array storage.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayData {
    /// `INTEGER` elements.
    Int(Vec<i64>),
    /// `REAL` elements.
    Real(Vec<f64>),
    /// `LOGICAL` elements.
    Bool(Vec<bool>),
    /// `COMPLEX` elements as `[re, im]`.
    Complex(Vec<[f64; 2]>),
}

impl ArrayData {
    /// Zero-filled storage of `len` elements of type `ty`.
    pub fn zeros(ty: ElemType, len: usize) -> Self {
        match ty {
            ElemType::Int => ArrayData::Int(vec![0; len]),
            ElemType::Real => ArrayData::Real(vec![0.0; len]),
            ElemType::Bool => ArrayData::Bool(vec![false; len]),
            ElemType::Complex => ArrayData::Complex(vec![[0.0, 0.0]; len]),
        }
    }

    /// Empty storage of type `ty` with room for `cap` elements.
    pub fn with_capacity(ty: ElemType, cap: usize) -> Self {
        match ty {
            ElemType::Int => ArrayData::Int(Vec::with_capacity(cap)),
            ElemType::Real => ArrayData::Real(Vec::with_capacity(cap)),
            ElemType::Bool => ArrayData::Bool(Vec::with_capacity(cap)),
            ElemType::Complex => ArrayData::Complex(Vec::with_capacity(cap)),
        }
    }

    /// Element type of the storage.
    pub fn elem_type(&self) -> ElemType {
        match self {
            ArrayData::Int(_) => ElemType::Int,
            ArrayData::Real(_) => ElemType::Real,
            ArrayData::Bool(_) => ElemType::Bool,
            ArrayData::Complex(_) => ElemType::Complex,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ArrayData::Int(v) => v.len(),
            ArrayData::Real(v) => v.len(),
            ArrayData::Bool(v) => v.len(),
            ArrayData::Complex(v) => v.len(),
        }
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read element `i` as a [`Value`].
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        match self {
            ArrayData::Int(v) => Value::Int(v[i]),
            ArrayData::Real(v) => Value::Real(v[i]),
            ArrayData::Bool(v) => Value::Bool(v[i]),
            ArrayData::Complex(v) => Value::Complex(v[i][0], v[i][1]),
        }
    }

    /// Write element `i`, converting `val` to the storage type.
    #[inline]
    pub fn set(&mut self, i: usize, val: Value) {
        match self {
            ArrayData::Int(v) => v[i] = val.as_int(),
            ArrayData::Real(v) => v[i] = val.as_real(),
            ArrayData::Bool(v) => v[i] = val.as_bool(),
            ArrayData::Complex(v) => v[i] = val.complex_parts(),
        }
    }

    /// Append one element, converting `val` to the storage type as
    /// [`ArrayData::set`] does.
    #[inline]
    pub fn push(&mut self, val: Value) {
        match self {
            ArrayData::Int(v) => v.push(val.as_int()),
            ArrayData::Real(v) => v.push(val.as_real()),
            ArrayData::Bool(v) => v.push(val.as_bool()),
            ArrayData::Complex(v) => v.push(val.complex_parts()),
        }
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        match self {
            ArrayData::Int(v) => v.fill(0),
            ArrayData::Real(v) => v.fill(0.0),
            ArrayData::Bool(v) => v.fill(false),
            ArrayData::Complex(v) => v.fill([0.0, 0.0]),
        }
    }

    /// Borrow as `&[f64]`; panics for non-REAL storage.
    pub fn as_real_slice(&self) -> &[f64] {
        match self {
            ArrayData::Real(v) => v,
            other => panic!("expected REAL storage, got {:?}", other.elem_type()),
        }
    }

    /// Borrow as `&mut [f64]`; panics for non-REAL storage.
    pub fn as_real_slice_mut(&mut self) -> &mut [f64] {
        match self {
            ArrayData::Real(v) => v,
            other => panic!("expected REAL storage, got {:?}", other.elem_type()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(3).as_real(), 3.0);
        assert_eq!(Value::Real(2.9).as_int(), 2);
        assert_eq!(Value::Real(2.5).convert_to(ElemType::Int), Value::Int(2));
        assert_eq!(
            Value::Int(2).convert_to(ElemType::Complex),
            Value::Complex(2.0, 0.0)
        );
    }

    #[test]
    #[should_panic(expected = "LOGICAL")]
    fn bool_in_numeric_context_panics() {
        Value::Bool(true).as_real();
    }

    #[test]
    fn array_get_set_roundtrip() {
        for ty in [
            ElemType::Int,
            ElemType::Real,
            ElemType::Bool,
            ElemType::Complex,
        ] {
            let mut a = ArrayData::zeros(ty, 4);
            assert_eq!(a.len(), 4);
            assert_eq!(a.get(2), ty.zero());
            let v = match ty {
                ElemType::Int => Value::Int(7),
                ElemType::Real => Value::Real(7.5),
                ElemType::Bool => Value::Bool(true),
                ElemType::Complex => Value::Complex(1.0, -2.0),
            };
            a.set(2, v);
            assert_eq!(a.get(2), v);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Bool(true).to_string(), "T");
        assert_eq!(Value::Int(-4).to_string(), "-4");
    }
}
