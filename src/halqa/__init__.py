"""Arabic yes/no question answering: question analysis with synonym and
antonym expansion, paragraph/document retrieval, and polarity-based
answer selection."""
