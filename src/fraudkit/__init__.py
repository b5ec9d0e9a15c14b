"""fraudkit: imbalanced fraud detection toolkit.

Pipeline stages over CSV transaction data: cleansing/encoding/splits,
classical and GAN-based oversampling, seven binary classifiers with IF-THEN
rule extraction from decision trees, and six one-class detectors.
"""

__version__ = "0.1.0"
