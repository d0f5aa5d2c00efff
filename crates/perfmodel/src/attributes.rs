//! The paper's §II "Performance Attributes" table, regenerated from the
//! harness configuration.

use crate::a64fx::{A64fxNode, FUGAKU_FULL_NODES};

/// Render the performance-attributes table (paper §II) for this
/// reproduction, annotating the substitutions.
pub fn performance_attributes() -> String {
    let node = A64fxNode::FUGAKU;
    let cores = FUGAKU_FULL_NODES * node.cores;
    format!(
        "Performance Attributes               | This reproduction\n\
         -------------------------------------+------------------------------------------\n\
         Problem size                         | up to ten million geospatial locations (simulated scale)\n\
         Category of achievement              | time-to-solution and scalability\n\
         Type of method used                  | Maximum Likelihood Estimation (MLE)\n\
         Results reported on basis of         | whole application\n\
         Precision reported                   | double, single, and half precision\n\
         System scale                         | {FUGAKU_FULL_NODES} modeled A64FX nodes ({cores} cores)\n\
         Measurement mechanism                | timers; flops; discrete-event simulation\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_mentions_the_paper_scale() {
        let t = performance_attributes();
        assert!(t.contains("48384"));
        assert!(t.contains("2322432")); // 48384 * 48 cores
        assert!(t.contains("Maximum Likelihood Estimation"));
    }
}
