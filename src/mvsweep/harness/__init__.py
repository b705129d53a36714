"""Pipeline driver, configuration, bit-exact file formats, box extraction and
the command-line interface."""
