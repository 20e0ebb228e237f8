"""Multi-class classification from passively obtained triplet comparisons."""

from .dataset import Dataset, LabelDict, load_csv, make_moons, save_csv, split
from .triplets import (
    RatingsTable,
    Relation,
    TestTripletSet,
    Triplet,
    TripletStore,
    add_noise,
    generate_from_ratings,
    generate_from_vectors,
    generate_test_set,
    generate_training_set,
    load_ratings,
    split_store_for_evaluation,
    subsample,
)
from .weak import (
    RoundStats,
    TripletClassifier,
    bitmask,
    classifier_alpha,
    mask_labels,
    round_weights,
    select_labels,
    z_factor,
)
from .boost import (
    BoostConfig,
    Checkpoint,
    StrongModel,
    init_weights,
    load_model,
    sample_reference_pair,
    save_model,
    train,
    update_weights,
)
from .predict import (
    ABSTAIN,
    Prediction,
    Predictions,
    predict_all,
    resolve,
    resolve_all,
    score,
    score_naive,
    signed_scores_on_training,
)
from .bounds import (
    abstention_bound,
    abstention_limit,
    bound_surface_rows,
    empirical_margin_bound,
    end_to_end_abstention,
    margin,
    margin_values,
    simulate_abstention,
    training_error_bound,
)
from .metrics import EvalReport, evaluate_predictions
from .experiment import ExperimentSpec, parse_spec, run_experiment

__version__ = "0.1.0"
