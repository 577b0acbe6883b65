//! Typed serving errors.
//!
//! A serving engine answers untrusted queries; a bad user id must come back
//! as a value the caller can map to an HTTP 4xx, never as a panic that
//! takes the whole process down.

/// Everything that can go wrong building a model or answering a query.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The queried user id is not a row of `P`.
    UnknownUser {
        /// Requested user.
        user: u32,
        /// Users the model actually has.
        users: usize,
    },
    /// A fold-in rating names an item that is not a row of `Q`.
    UnknownItem {
        /// Offending item.
        item: u32,
        /// Items the model actually has.
        items: usize,
    },
    /// Factor matrices (or the seen matrix) disagree on shape.
    DimMismatch(String),
    /// Fold-in was asked to learn from zero ratings.
    EmptyFoldIn,
    /// The admission queue was full and the query was shed instead of
    /// queued (backpressure: the caller should retry later or degrade).
    Overloaded {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The admission pipeline shut down before this query was answered.
    PipelineClosed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownUser { user, users } => {
                write!(f, "unknown user {user} (model has {users} users)")
            }
            ServeError::UnknownItem { item, items } => {
                write!(f, "unknown item {item} (model has {items} items)")
            }
            ServeError::DimMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            ServeError::EmptyFoldIn => write!(f, "fold-in needs at least one rating"),
            ServeError::Overloaded { capacity } => {
                write!(f, "admission queue full ({capacity} queries); query shed")
            }
            ServeError::PipelineClosed => {
                write!(f, "admission pipeline shut down before answering")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let e = ServeError::UnknownUser { user: 9, users: 3 };
        assert!(e.to_string().contains('9') && e.to_string().contains('3'));
        assert!(ServeError::EmptyFoldIn.to_string().contains("fold-in"));
    }
}
