//! Error type for the join layer.

use std::fmt;

/// Errors surfaced while running a spatial join system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpatialJoinError {
    /// Storage failure.
    Dfs(String),
    /// Query engine failure (ISP-MC path).
    Impala(String),
    /// Geometry failure that was not recoverable by dropping a record.
    Geom(String),
    /// A join request that no data can satisfy, such as a negative or
    /// NaN `NearestD` distance.
    InvalidPredicate(String),
}

impl fmt::Display for SpatialJoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpatialJoinError::Dfs(m) => write!(f, "storage error: {m}"),
            SpatialJoinError::Impala(m) => write!(f, "query engine error: {m}"),
            SpatialJoinError::Geom(m) => write!(f, "geometry error: {m}"),
            SpatialJoinError::InvalidPredicate(m) => write!(f, "invalid predicate: {m}"),
        }
    }
}

impl std::error::Error for SpatialJoinError {}

impl From<minihdfs::DfsError> for SpatialJoinError {
    fn from(e: minihdfs::DfsError) -> Self {
        SpatialJoinError::Dfs(e.to_string())
    }
}

impl From<impalite::ImpalaError> for SpatialJoinError {
    fn from(e: impalite::ImpalaError) -> Self {
        SpatialJoinError::Impala(e.to_string())
    }
}

impl From<geom::GeomError> for SpatialJoinError {
    fn from(e: geom::GeomError) -> Self {
        SpatialJoinError::Geom(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: SpatialJoinError = minihdfs::DfsError::NotFound("/x".into()).into();
        assert!(e.to_string().contains("/x"));
        let e2: SpatialJoinError = impalite::ImpalaError::UnknownTable("t".into()).into();
        assert!(matches!(e2, SpatialJoinError::Impala(_)));
        let e3: SpatialJoinError = geom::GeomError::Invalid("bad".into()).into();
        assert!(matches!(e3, SpatialJoinError::Geom(_)));
    }
}
