//! Dataset schemas: attribute names and kinds.
//!
//! SECRETA datasets have *relational* attributes (categorical or
//! numeric, one value per record) and at most one *transaction*
//! attribute (a set of items per record). Datasets with both are the
//! paper's *RT-datasets*.

use crate::error::DataError;
use serde::{Deserialize, Serialize};

/// The kind of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttributeKind {
    /// Relational, values drawn from an unordered categorical domain
    /// (e.g. *Occupation*).
    Categorical,
    /// Relational, values parse as numbers and are ordered
    /// (e.g. *Age*); hierarchies over numeric attributes are interval
    /// trees.
    Numeric,
    /// The set-valued transaction attribute (e.g. purchased items,
    /// diagnosis codes).
    Transaction,
}

impl AttributeKind {
    /// True for the two relational kinds.
    pub fn is_relational(self) -> bool {
        !matches!(self, AttributeKind::Transaction)
    }
}

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribute {
    /// Display name (CSV header).
    pub name: String,
    /// Kind of the attribute.
    pub kind: AttributeKind,
}

impl Attribute {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, kind: AttributeKind) -> Self {
        Self {
            name: name.into(),
            kind,
        }
    }

    /// Categorical relational attribute.
    pub fn categorical(name: impl Into<String>) -> Self {
        Self::new(name, AttributeKind::Categorical)
    }

    /// Numeric relational attribute.
    pub fn numeric(name: impl Into<String>) -> Self {
        Self::new(name, AttributeKind::Numeric)
    }

    /// The transaction attribute.
    pub fn transaction(name: impl Into<String>) -> Self {
        Self::new(name, AttributeKind::Transaction)
    }
}

/// An ordered list of attributes describing a dataset.
///
/// Invariants (enforced by [`Schema::new`]):
/// * attribute names are unique,
/// * at most one attribute is of kind [`AttributeKind::Transaction`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Validate and build a schema.
    pub fn new(attributes: Vec<Attribute>) -> Result<Self, DataError> {
        let mut seen = std::collections::HashSet::new();
        let mut tx = 0usize;
        for a in &attributes {
            if !seen.insert(a.name.clone()) {
                return Err(DataError::DuplicateAttribute(a.name.clone()));
            }
            if a.kind == AttributeKind::Transaction {
                tx += 1;
            }
        }
        if tx > 1 {
            return Err(DataError::MultipleTransactionAttributes);
        }
        Ok(Self { attributes })
    }

    /// All attributes in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of attributes (relational + transaction).
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// True when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Index of the attribute called `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }

    /// The attribute at `idx`.
    pub fn attribute(&self, idx: usize) -> Option<&Attribute> {
        self.attributes.get(idx)
    }

    /// Indices of the relational attributes, in declaration order.
    pub fn relational_indices(&self) -> Vec<usize> {
        self.relational().collect()
    }

    /// [`Schema::relational_indices`] without collecting them, for the
    /// per-row push paths.
    pub(crate) fn relational(&self) -> impl Iterator<Item = usize> + '_ {
        self.attributes
            .iter()
            .enumerate()
            .filter(|(_, a)| a.kind.is_relational())
            .map(|(i, _)| i)
    }

    /// Index of the transaction attribute, if any.
    pub fn transaction_index(&self) -> Option<usize> {
        self.attributes
            .iter()
            .position(|a| a.kind == AttributeKind::Transaction)
    }

    /// True when the schema describes an RT-dataset (relational *and*
    /// transaction attributes present).
    pub fn is_rt(&self) -> bool {
        self.transaction_index().is_some() && self.attributes.iter().any(|a| a.kind.is_relational())
    }

    /// Rename the attribute at `idx` (Dataset Editor operation).
    pub fn rename(&mut self, idx: usize, new_name: &str) -> Result<(), DataError> {
        if idx >= self.attributes.len() {
            return Err(DataError::AttributeIndex(idx));
        }
        if self
            .attributes
            .iter()
            .enumerate()
            .any(|(i, a)| i != idx && a.name == new_name)
        {
            return Err(DataError::DuplicateAttribute(new_name.to_owned()));
        }
        self.attributes[idx].name = new_name.to_owned();
        Ok(())
    }

    /// Switch a *relational* attribute between categorical and
    /// numeric. The transaction attribute cannot be retyped this way
    /// (and no attribute can become the transaction attribute) — that
    /// would change the dataset class. Out-of-range indices and
    /// non-relational targets are ignored; retyping is metadata-only
    /// and never invalidates stored ids.
    pub(crate) fn set_kind(&mut self, idx: usize, kind: AttributeKind) {
        if kind == AttributeKind::Transaction {
            return;
        }
        if let Some(a) = self.attributes.get_mut(idx) {
            if a.kind.is_relational() {
                a.kind = kind;
            }
        }
    }

    pub(crate) fn push(&mut self, attr: Attribute) -> Result<usize, DataError> {
        if self.index_of(&attr.name).is_some() {
            return Err(DataError::DuplicateAttribute(attr.name));
        }
        if attr.kind == AttributeKind::Transaction && self.transaction_index().is_some() {
            return Err(DataError::MultipleTransactionAttributes);
        }
        self.attributes.push(attr);
        Ok(self.attributes.len() - 1)
    }

    pub(crate) fn remove(&mut self, idx: usize) -> Result<Attribute, DataError> {
        if idx >= self.attributes.len() {
            return Err(DataError::AttributeIndex(idx));
        }
        Ok(self.attributes.remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_schema() -> Schema {
        Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::categorical("Education"),
            Attribute::transaction("Items"),
        ])
        .unwrap()
    }

    #[test]
    fn rt_schema_classifies_attributes() {
        let s = rt_schema();
        assert!(s.is_rt());
        assert_eq!(s.relational_indices(), vec![0, 1]);
        assert_eq!(s.transaction_index(), Some(2));
        assert_eq!(s.index_of("Education"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn purely_relational_schema_is_not_rt() {
        let s = Schema::new(vec![Attribute::numeric("Age")]).unwrap();
        assert!(!s.is_rt());
        assert_eq!(s.transaction_index(), None);
    }

    #[test]
    fn purely_transactional_schema_is_not_rt() {
        let s = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        assert!(!s.is_rt());
        assert_eq!(s.relational_indices(), Vec::<usize>::new());
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::categorical("Age"),
        ])
        .unwrap_err();
        assert!(matches!(err, DataError::DuplicateAttribute(_)));
    }

    #[test]
    fn two_transaction_attributes_rejected() {
        let err = Schema::new(vec![
            Attribute::transaction("A"),
            Attribute::transaction("B"),
        ])
        .unwrap_err();
        assert!(matches!(err, DataError::MultipleTransactionAttributes));
    }

    #[test]
    fn rename_enforces_uniqueness() {
        let mut s = rt_schema();
        assert!(s.rename(0, "Education").is_err());
        s.rename(0, "YearsOld").unwrap();
        assert_eq!(s.attribute(0).unwrap().name, "YearsOld");
        // renaming to own current name is a no-op, not a collision
        s.rename(0, "YearsOld").unwrap();
        assert!(s.rename(99, "X").is_err());
    }

    #[test]
    fn push_guards_invariants() {
        let mut s = rt_schema();
        assert!(s.push(Attribute::transaction("More")).is_err());
        assert!(s.push(Attribute::categorical("Age")).is_err());
        let idx = s.push(Attribute::categorical("Zip")).unwrap();
        assert_eq!(idx, 3);
    }
}
