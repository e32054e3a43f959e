"""Unsupervised neighborhood embeddings from street-view features and POI text.

The pipeline runs in three stages: (1) triplet training of a street-view
feature encoder against geographic context, (2) neighborhood embeddings as
the mean of their street-view embeddings, (3) joint refinement of
neighborhood and POI-word embeddings on word triplets. Downstream analytics
cover repeated-split regression, clustering, and similarity search.
"""

from .encoder import EncoderParams, init_encoder
from .errors import (FormatError, IntegrityError, NotFoundError, PipelineError,
                     StageOrderError, UsageError, ValidationError)
from .geo import GeoPoint, SpatialIndex, assign_neighborhood, build_index
from .corpus import (Bag, NegativeWordSampler, PoiColumns, PoiRecord, Vocabulary,
                     build_neighborhood_bag, build_vocabulary, load_pretrained_vectors,
                     read_poi_columns, read_poi_jsonl)
from .training import (TrainingConfig, aggregate_neighborhoods, init_word_vectors,
                       train_poi_stage, train_street_view, triplet_grads)
from .analytics import (PcaModel, RegressionReport, SplitProtocol, cosine_rank,
                        evaluate_regression, kmeans, linreg_fit, pca_fit,
                        poistats_tfidf, r_squared)
from .synthcity import SynthCity, SynthConfig, export_city, generate_city

__version__ = "0.1.0"
